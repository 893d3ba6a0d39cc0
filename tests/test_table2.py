"""Table II through the campaign, on scenario subsets.

``table2_forwarding`` grades through
:func:`repro.faults.run_parallel_checkpointed_campaign`; these tests
compare its rows with ranges computed directly from ``run_scenario`` and
``module_coverage``, with no campaign in between.
"""

from repro.analysis.experiments import MODELS, table2_forwarding
from repro.core import cache_wrapped_builder, run_scenario
from repro.core.determinism import Scenario, default_scenarios
from repro.faults import coverage_range, module_coverage
from repro.soc import CodeAlignment, CodePosition
from repro.stl import RoutineContext
from repro.stl.routines import make_forwarding_routine


def direct_ranges(builders, scenarios):
    """Core id -> (fault count, FWD coverage range), without a campaign."""
    per_core = {}
    for scenario in scenarios:
        result = run_scenario(builders, scenario)
        for core_id in scenario.active_cores:
            per_core.setdefault(core_id, []).append(
                module_coverage("FWD", result.per_core[core_id].log, MODELS[core_id])
            )
    return {
        core_id: (coverages[0].total_faults, coverage_range(coverages))
        for core_id, coverages in per_core.items()
    }


def test_subset_without_core_c_renders_rows_for_a_and_b_only():
    scenarios = default_scenarios()[:2]
    assert all(2 not in s.active_cores for s in scenarios)
    result = table2_forwarding(scenarios)
    assert [row.core for row in result.rows] == ["A", "B"]
    lines = result.render().splitlines()
    assert [line.split("|")[1].strip() for line in lines[3:]] == ["A", "B"]


def test_subset_rows_match_direct_grading():
    scenarios = (
        Scenario((0, 1), CodePosition.LOW, CodeAlignment.QWORD),
        Scenario((0, 1, 2), CodePosition.LOW, CodeAlignment.QWORD),
    )
    contexts = {i: RoutineContext.for_core(i, m) for i, m in MODELS.items()}
    plain = direct_ranges(
        {
            i: make_forwarding_routine(m, with_pcs=False).builder_for(contexts[i])
            for i, m in MODELS.items()
        },
        scenarios,
    )
    wrapped = direct_ranges(
        {
            i: cache_wrapped_builder(
                make_forwarding_routine(m, with_pcs=False), contexts[i]
            )
            for i, m in MODELS.items()
        },
        scenarios,
    )
    result = table2_forwarding(scenarios)
    assert [row.core for row in result.rows] == ["A", "B", "C"]
    for core_id, row in zip(MODELS, result.rows):
        num_faults, no_cache = plain[core_id]
        assert (row.num_faults, row.no_cache) == (num_faults, no_cache)
        assert row.cached == wrapped[core_id][1]
        assert row.cached.stable
