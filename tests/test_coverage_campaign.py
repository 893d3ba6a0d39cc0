"""Mini fault-coverage campaigns asserting the paper's core claims."""

import pytest

from repro.core import cache_wrapped_builder, run_scenario
from repro.core.determinism import Scenario, single_core_scenarios
from repro.cpu.core import CORE_MODEL_A, CORE_MODEL_B, CORE_MODEL_C
from repro.faults import coverage_range, module_coverage
from repro.soc import CodeAlignment, CodePosition
from repro.stl import RoutineContext
from repro.stl.routines import make_forwarding_routine, make_interrupt_routine

MODELS = {0: CORE_MODEL_A, 1: CORE_MODEL_B, 2: CORE_MODEL_C}


def contexts():
    return {i: RoutineContext.for_core(i, m) for i, m in MODELS.items()}


def mini_scenarios():
    return (
        Scenario((0, 1, 2), CodePosition.LOW, CodeAlignment.QWORD),
        Scenario((0, 1, 2), CodePosition.MID, CodeAlignment.WORD),
        Scenario((0, 1), CodePosition.HIGH, CodeAlignment.DWORD),
    )


@pytest.fixture(scope="module")
def fwd_runs():
    ctxs = contexts()
    plain = {
        i: make_forwarding_routine(m, with_pcs=False).builder_for(ctxs[i])
        for i, m in MODELS.items()
    }
    wrapped = {
        i: cache_wrapped_builder(make_forwarding_routine(m, with_pcs=False), ctxs[i])
        for i, m in MODELS.items()
    }
    plain_results = [run_scenario(plain, s) for s in mini_scenarios()]
    wrapped_results = [run_scenario(wrapped, s) for s in mini_scenarios()]
    single = run_scenario(plain, single_core_scenarios(0)[0])
    return plain_results, wrapped_results, single


def test_cached_forwarding_coverage_higher_and_stable(fwd_runs):
    plain_results, wrapped_results, _ = fwd_runs
    for core_id, model in MODELS.items():
        plain = [
            module_coverage("FWD", r.per_core[core_id].log, model)
            for r in plain_results
            if core_id in r.per_core
        ]
        wrapped = [
            module_coverage("FWD", r.per_core[core_id].log, model)
            for r in wrapped_results
            if core_id in r.per_core
        ]
        cached = coverage_range(wrapped)
        assert cached.stable
        assert cached.minimum_percent > max(c.coverage_percent for c in plain)


def test_no_cache_coverage_oscillates(fwd_runs):
    plain_results, _, _ = fwd_runs
    oscillating = 0
    for core_id, model in MODELS.items():
        coverages = [
            module_coverage("FWD", r.per_core[core_id].log, model)
            for r in plain_results
            if core_id in r.per_core
        ]
        if coverage_range(coverages).spread > 0:
            oscillating += 1
    assert oscillating >= 2


def test_single_core_below_cached(fwd_runs):
    _, wrapped_results, single = fwd_runs
    model = CORE_MODEL_A
    single_cov = module_coverage("FWD", single.per_core[0].log, model)
    cached = [
        module_coverage("FWD", r.per_core[0].log, model) for r in wrapped_results
    ]
    assert single_cov.coverage_percent < min(c.coverage_percent for c in cached)


def test_core_c_forwarding_coverage_lowest_cached(fwd_runs):
    """The 32-bit signature masks part of core C's 64-bit datapath."""
    _, wrapped_results, _ = fwd_runs
    by_core = {}
    for core_id, model in MODELS.items():
        values = [
            module_coverage("FWD", r.per_core[core_id].log, model).coverage_percent
            for r in wrapped_results
            if core_id in r.per_core
        ]
        by_core[model.name] = max(values)
    assert by_core["C"] < by_core["A"]
    assert by_core["C"] < by_core["B"]


def test_icu_coverage_higher_on_core_c():
    """One-hot status bits beat the shared mapping by several percent."""
    ctxs = contexts()
    results = {}
    for core_id, model in MODELS.items():
        builder = {core_id: cache_wrapped_builder(make_interrupt_routine(model), ctxs[core_id])}
        run = run_scenario(builder, single_core_scenarios(core_id)[0])
        results[model.name] = module_coverage(
            "ICU", run.per_core[core_id].log, model
        ).coverage_percent
    assert results["C"] > results["A"] + 2
    assert results["C"] > results["B"] + 2


def test_hdcu_stall_faults_need_performance_counters():
    """With PCs removed, the stall-request cone is unobservable, so the
    HDCU coverage must drop."""
    ctx = RoutineContext.for_core(0, CORE_MODEL_A)
    routine = make_forwarding_routine(CORE_MODEL_A, with_pcs=True)
    builder = {0: cache_wrapped_builder(routine, ctx)}
    scenario = single_core_scenarios(0)[0]
    with_pcs = run_scenario(builder, scenario, pcs_observable=True)
    without = run_scenario(builder, scenario, pcs_observable=False)
    cov_with = module_coverage("HDCU", with_pcs.per_core[0].log, CORE_MODEL_A)
    cov_without = module_coverage("HDCU", without.per_core[0].log, CORE_MODEL_A)
    assert cov_with.detected_faults > cov_without.detected_faults


def test_coverage_range_requires_data():
    with pytest.raises(ValueError):
        coverage_range([])
