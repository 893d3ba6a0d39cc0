"""Tests of golden-signature derivation and the determinism campaign."""

from repro.core import (
    cache_wrapped_builder,
    default_scenarios,
    finalise_with_expected,
    golden_signature,
    run_scenario,
    signature_stability,
    single_core_scenarios,
)
from repro.core.determinism import Scenario
from repro.cpu.core import CORE_MODEL_A, CORE_MODEL_B, CORE_MODEL_C
from repro.soc import CodeAlignment, CodePosition
from repro.stl import RoutineContext
from repro.stl.conventions import RESULT_PASS
from repro.stl.routines import make_forwarding_routine

MODELS = {0: CORE_MODEL_A, 1: CORE_MODEL_B, 2: CORE_MODEL_C}


def small_routine(model):
    return make_forwarding_routine(
        model, with_pcs=False, patterns_per_path=1, load_use_blocks=1
    )


def contexts():
    return {i: RoutineContext.for_core(i, m) for i, m in MODELS.items()}


def test_finalise_with_expected_roundtrip():
    ctx = contexts()[0]
    routine = small_routine(CORE_MODEL_A)

    def build(expected):
        return routine.build_single_core(0x1000, ctx, expected)

    program, expected = finalise_with_expected(build, 0)
    assert expected == golden_signature(build(None), 0)
    # The finalised program passes its own check.
    from tests.conftest import run_program

    _, core = run_program(program)
    assert core.dtcm.read_word(ctx.mailbox_address) == RESULT_PASS


def test_scenario_matrix_size_and_labels():
    scenarios = default_scenarios()
    assert len(scenarios) == 18
    labels = {s.label for s in scenarios}
    assert len(labels) == 18
    assert len(single_core_scenarios(0)) == 9


def test_start_delays_deterministic_and_scenario_dependent():
    a = Scenario((0, 1, 2), CodePosition.LOW, CodeAlignment.QWORD)
    b = Scenario((0, 1, 2), CodePosition.HIGH, CodeAlignment.WORD)
    assert a.start_delay(0) == a.start_delay(0)
    delays_a = [a.start_delay(c) for c in range(3)]
    delays_b = [b.start_delay(c) for c in range(3)]
    assert delays_a != delays_b


def test_run_scenario_collects_all_active_cores():
    ctxs = contexts()
    builders = {
        i: small_routine(m).builder_for(ctxs[i]) for i, m in MODELS.items()
    }
    scenario = Scenario((0, 2), CodePosition.MID, CodeAlignment.DWORD)
    result = run_scenario(builders, scenario)
    assert set(result.per_core) == {0, 2}
    assert result.per_core[0].signature != 0
    assert result.per_core[0].cycles > 0
    assert result.per_core[0].log.forwarding


def test_inactive_cores_stay_off():
    ctxs = contexts()
    builders = {
        i: small_routine(m).builder_for(ctxs[i]) for i, m in MODELS.items()
    }
    scenario = Scenario((0,), CodePosition.LOW, CodeAlignment.QWORD)
    result = run_scenario(builders, scenario)
    assert set(result.per_core) == {0}


def test_wrapped_signature_stable_across_scenarios():
    """The paper's headline: identical signatures in every scenario."""
    ctxs = contexts()
    builders = {
        i: cache_wrapped_builder(small_routine(m), ctxs[i])
        for i, m in MODELS.items()
    }
    results = [run_scenario(builders, s) for s in default_scenarios()[::4]]
    for core_id in MODELS:
        report = signature_stability(results, core_id)
        assert report.stable, f"core {core_id} unstable: {report.signatures}"


def test_unwrapped_pc_signature_unstable_across_scenarios():
    """And the converse: with PCs in the signature and no caches, the
    multi-core runs disagree."""
    ctxs = contexts()
    builders = {
        i: make_forwarding_routine(
            m, with_pcs=True, patterns_per_path=1
        ).builder_for(ctxs[i])
        for i, m in MODELS.items()
    }
    results = [
        run_scenario(builders, s, pcs_observable=True)
        for s in default_scenarios()[::3]
    ]
    unstable_cores = sum(
        1 for core_id in MODELS
        if not signature_stability(results, core_id).stable
    )
    assert unstable_cores >= 2


def test_stability_report_counts_verdicts():
    report = signature_stability([], 0)
    assert report.pass_rate == 0.0
    assert report.signatures == ()
