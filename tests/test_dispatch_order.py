"""Property tests of the campaign's shard dispatch and outcome order.

A campaign's result is independent of its worker count only if every
scenario is dispatched exactly once and its outcome comes back once, in
the caller's scenario order.  Shards run three-core scenarios before
two-core ones (they cost more), then by label, whatever order the
caller lists them in.  The dispatch order is read from ``on_shard`` in
the calling process (``workers=1``), with grading stubbed out so the
full matrix costs milliseconds.  The permutation property also runs
under ``hypothesis`` when it is installed.
"""

import random
import tempfile

import pytest

from repro.core.determinism import Scenario, default_scenarios
from repro.faults import ScenarioOutcome, run_parallel_checkpointed_campaign
from repro.soc import CodeAlignment, CodePosition

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on minimal installs
    HAVE_HYPOTHESIS = False

MODULES = ("FWD", "HDCU", "ICU")
SEEDS = tuple(range(8))


def stub_grade(builders, scenario, models, modules, **kwargs):
    return ScenarioOutcome(label=scenario.label)


def dispatch(scenarios):
    """Run a stub-graded campaign in-process: ``(shard order, result)``."""
    order = []
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr("repro.faults.orchestrator.grade_scenario", stub_grade)
        result = run_parallel_checkpointed_campaign(
            dict,
            scenarios,
            {},
            tmp,
            modules=MODULES,
            on_shard=lambda index, outcome: order.append(outcome.label),
        )
    return order, result


def check_dispatch(scenarios, order, result):
    """Every scenario once, longest first; outcomes in caller order."""
    labels = [scenario.label for scenario in scenarios]
    assert sorted(order) == sorted(labels)
    assert len(set(order)) == len(order)
    cores = {scenario.label: len(scenario.active_cores) for scenario in scenarios}
    keys = [(-cores[label], label) for label in order]
    assert keys == sorted(keys)
    assert result.num_shards == len(scenarios)
    assert [timing.label for timing in result.shard_timings] == order
    assert list(result.outcomes) == labels


@pytest.mark.parametrize("seed", (1, 2, 7, 16, 40))
def test_scenario_plan_partitions_the_matrix(seed):
    """The full matrix, listed in a seed-shuffled order."""
    scenarios = list(default_scenarios())
    random.Random(seed).shuffle(scenarios)
    order, result = dispatch(scenarios)
    check_dispatch(scenarios, order, result)
    # Every three-core scenario is dispatched before any two-core one.
    three_core = sum(len(s.active_cores) == 3 for s in scenarios)
    assert 0 < three_core < len(scenarios)
    assert all(label.startswith("cores012_") for label in order[:three_core])
    # The caller's order does not reach the dispatch order.
    assert dispatch(default_scenarios())[0] == order


@pytest.mark.parametrize("reverse", (False, True))
def test_longest_first_is_not_label_order(reverse):
    """On the default matrix label order happens to be longest-first
    ("cores012_" sorts before "cores01_"); here it is not: label order
    would run the one-core scenario before the two-core one."""
    scenarios = [
        Scenario(cores, CodePosition.LOW, CodeAlignment.QWORD)
        for cores in ((0,), (1, 2), (0, 1, 2))
    ]
    if reverse:
        scenarios.reverse()
    labels = sorted(scenario.label for scenario in scenarios)
    assert labels == ["cores012_low_qword", "cores0_low_qword", "cores12_low_qword"]
    order, result = dispatch(scenarios)
    check_dispatch(scenarios, order, result)
    assert order == ["cores012_low_qword", "cores12_low_qword", "cores0_low_qword"]


@pytest.mark.parametrize("seed", SEEDS)
def test_shard_assignment_is_deterministic(seed):
    """A random sub-matrix dispatches in the full matrix's order
    restricted to its labels, whatever order the caller lists it in."""
    rng = random.Random(seed)
    scenarios = default_scenarios()
    subset = [s for s in scenarios if rng.random() < 0.5]
    rng.shuffle(subset)
    order, result = dispatch(subset)
    check_dispatch(subset, order, result)
    kept = {scenario.label for scenario in subset}
    full_order, _ = dispatch(scenarios)
    assert order == [label for label in full_order if label in kept]


# ----------------------------------------------------------------------
# Subsets x permutations under hypothesis, when available.
# ----------------------------------------------------------------------

if HAVE_HYPOTHESIS:

    @settings(max_examples=50, deadline=None)
    @given(
        picks=st.lists(
            st.integers(0, len(default_scenarios()) - 1), unique=True
        ),
        data=st.data(),
    )
    def test_hypothesis_partition_completeness(picks, data):
        matrix = default_scenarios()
        scenarios = [matrix[index] for index in sorted(picks)]
        order, result = dispatch(scenarios)
        check_dispatch(scenarios, order, result)
        permuted = data.draw(st.permutations(scenarios))
        assert dispatch(permuted)[0] == order
