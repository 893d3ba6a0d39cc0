"""Tests of the campaign-level helper APIs."""

from repro.core import (
    cache_wrapped_builder,
    run_scenario,
    signature_stability,
)
from repro.core.determinism import Scenario
from repro.cpu.core import CORE_MODEL_A, CORE_MODEL_B
from repro.soc import CodeAlignment, CodePosition
from repro.stl import RoutineContext
from repro.stl.routines import make_forwarding_routine


def test_run_campaign_returns_one_result_per_scenario():
    ctx0 = RoutineContext.for_core(0, CORE_MODEL_A)
    ctx1 = RoutineContext.for_core(1, CORE_MODEL_B)
    builders = {
        0: cache_wrapped_builder(
            make_forwarding_routine(CORE_MODEL_A, with_pcs=False,
                                    patterns_per_path=1),
            ctx0,
        ),
        1: cache_wrapped_builder(
            make_forwarding_routine(CORE_MODEL_B, with_pcs=False,
                                    patterns_per_path=1),
            ctx1,
        ),
    }
    scenarios = (
        Scenario((0, 1), CodePosition.LOW, CodeAlignment.QWORD),
        Scenario((0, 1), CodePosition.HIGH, CodeAlignment.WORD),
    )
    results = [run_scenario(builders, s) for s in scenarios]
    assert len(results) == 2
    assert all(set(r.per_core) == {0, 1} for r in results)
    report = signature_stability(results, 0)
    assert report.stable


def test_scenario_result_carries_stall_counters():
    ctx = RoutineContext.for_core(0, CORE_MODEL_A)
    builders = {
        0: make_forwarding_routine(
            CORE_MODEL_A, with_pcs=False, patterns_per_path=1
        ).builder_for(ctx)
    }
    result = run_scenario(
        builders, Scenario((0,), CodePosition.LOW, CodeAlignment.QWORD)
    )
    run = result.per_core[0]
    assert run.if_stalls > 0
    assert run.cycles >= run.if_stalls
    assert result.total_cycles >= run.cycles
