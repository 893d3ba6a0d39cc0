"""Extension — delay faults (the paper's future-work conjecture).

The paper's conclusion: "While considering stuck-at faults, few specific
test programs exhibit these issues in a multi-core execution.  Instead,
it might be further emphasized with delay faults which require test
patterns applied in a timed sequence."

This bench implements that experiment: transition-delay faults on the
forwarding logic are graded against *temporally ordered* activation
patterns, where detection needs a launch transition and its capture on
consecutive applied vectors.  Multi-core fetch gaps break exactly those
adjacencies, so the relative coverage loss without caches must be
larger for transition faults than for stuck-at faults — and the
cache-based strategy must restore a stable figure.
"""

from repro.core import cache_wrapped_builder
from repro.core.determinism import default_scenarios, run_scenario
from repro.cpu.core import CORE_MODEL_A, CORE_MODEL_B, CORE_MODEL_C
from repro.faults import coverage_range, module_coverage
from repro.stl import RoutineContext
from repro.stl.routines import make_forwarding_routine
from repro.utils.tables import format_table

MODELS = {0: CORE_MODEL_A, 1: CORE_MODEL_B, 2: CORE_MODEL_C}


def run_delay_fault_experiment():
    contexts = {i: RoutineContext.for_core(i, m) for i, m in MODELS.items()}
    plain = {
        i: make_forwarding_routine(m, with_pcs=False).builder_for(contexts[i])
        for i, m in MODELS.items()
    }
    wrapped = {
        i: cache_wrapped_builder(
            make_forwarding_routine(m, with_pcs=False), contexts[i]
        )
        for i, m in MODELS.items()
    }
    scenarios = default_scenarios()[::2]
    plain_results = [run_scenario(plain, s) for s in scenarios]
    wrapped_results = [run_scenario(wrapped, s) for s in scenarios]
    outcome = {}
    for core_id, model in MODELS.items():
        stuck_plain = coverage_range(
            [
                module_coverage("FWD", r.per_core[core_id].log, model)
                for r in plain_results
                if core_id in r.per_core
            ]
        )
        stuck_cached = coverage_range(
            [
                module_coverage("FWD", r.per_core[core_id].log, model)
                for r in wrapped_results
                if core_id in r.per_core
            ]
        )
        tdf_plain = coverage_range(
            [
                module_coverage("FWD-TDF", r.per_core[core_id].log, model)
                for r in plain_results
                if core_id in r.per_core
            ]
        )
        tdf_cached = coverage_range(
            [
                module_coverage("FWD-TDF", r.per_core[core_id].log, model)
                for r in wrapped_results
                if core_id in r.per_core
            ]
        )
        outcome[model.name] = (stuck_plain, stuck_cached, tdf_plain, tdf_cached)
    return outcome


def test_delay_faults(benchmark, emit):
    outcome = benchmark.pedantic(run_delay_fault_experiment, rounds=1, iterations=1)
    rows = []
    for core, (sa_p, sa_c, tdf_p, tdf_c) in outcome.items():
        rows.append(
            (
                core,
                f"{sa_p.minimum_percent:.2f}-{sa_p.maximum_percent:.2f}",
                f"{sa_c.minimum_percent:.2f}",
                f"{tdf_p.minimum_percent:.2f}-{tdf_p.maximum_percent:.2f}",
                f"{tdf_c.minimum_percent:.2f}",
            )
        )
    emit(
        format_table(
            ("core", "stuck-at no-cache", "stuck-at cached",
             "transition no-cache", "transition cached"),
            rows,
            title="Extension: stuck-at vs transition-delay coverage "
                  "(forwarding logic)",
        )
    )
    for core, (sa_p, sa_c, tdf_p, tdf_c) in outcome.items():
        # Cache-based: stable for both fault models.
        assert sa_c.stable and tdf_c.stable
        # The multi-core loss, relative to the cached reference, is
        # larger for delay faults — the paper's conjecture.
        sa_loss = 1 - sa_p.maximum_percent / sa_c.minimum_percent
        tdf_loss = 1 - tdf_p.maximum_percent / tdf_c.minimum_percent
        assert tdf_loss > sa_loss, core
