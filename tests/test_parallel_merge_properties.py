"""Property tests of the campaign's shard planner.

A sharded campaign is only equivalent to the serial one if its shard
layout is a true partition of the scenario matrix: every label in
exactly one shard, one label per shard.  The plan runs three-core
scenarios before two-core ones (they cost more), and it depends only on
the scenario *set*: re-planning after a lost manifest must re-adopt the
existing shard checkpoints even when the caller lists the scenarios in
another order.  The permutation property also runs under
``hypothesis`` when it is installed.
"""

import random

import pytest

from repro.core.determinism import default_scenarios
from repro.faults import plan_campaign_shards

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on minimal installs
    HAVE_HYPOTHESIS = False

MODULES = ("FWD", "HDCU", "ICU")
SEEDS = tuple(range(8))


def check_plan(scenarios, plan):
    """One shard per scenario, every label once, longest first."""
    assert plan.num_shards == len(plan.labels) == len(scenarios)
    assert all(len(shard) == 1 for shard in plan.labels)
    flattened = [label for shard in plan.labels for label in shard]
    assert sorted(flattened) == sorted(scenario.label for scenario in scenarios)
    assert len(set(flattened)) == len(flattened)
    cores = {scenario.label: len(scenario.active_cores) for scenario in scenarios}
    order = [(-cores[label], label) for label in flattened]
    assert order == sorted(order)


@pytest.mark.parametrize("seed", (1, 2, 7, 16, 40))
def test_scenario_plan_partitions_the_matrix(seed):
    """The full matrix, listed in a seed-shuffled order."""
    scenarios = list(default_scenarios())
    random.Random(seed).shuffle(scenarios)
    plan = plan_campaign_shards(scenarios, MODULES)
    check_plan(scenarios, plan)
    assert plan.modules == MODULES
    # Every three-core scenario is planned before any two-core one.
    three_core = sum(len(s.active_cores) == 3 for s in scenarios)
    assert 0 < three_core < len(scenarios)
    assert all(
        label.startswith("cores012_")
        for (label,) in plan.labels[:three_core]
    )
    # The caller's order does not reach the plan.
    assert plan_campaign_shards(default_scenarios(), MODULES) == plan


@pytest.mark.parametrize("seed", SEEDS)
def test_shard_assignment_is_deterministic(seed):
    """A random sub-matrix plans the full matrix's order restricted to
    its labels, whatever order the caller lists it in."""
    rng = random.Random(seed)
    scenarios = default_scenarios()
    subset = [s for s in scenarios if rng.random() < 0.5]
    full = plan_campaign_shards(scenarios, MODULES)
    partial = plan_campaign_shards(subset, MODULES)
    check_plan(subset, partial)
    shuffled = list(subset)
    rng.shuffle(shuffled)
    assert plan_campaign_shards(shuffled, MODULES) == partial
    kept = {scenario.label for scenario in subset}
    assert partial.labels == tuple(
        shard for shard in full.labels if shard[0] in kept
    )


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
        plan = plan_campaign_shards(scenarios, MODULES)
        check_plan(scenarios, plan)
        permuted = data.draw(st.permutations(scenarios))
        assert plan_campaign_shards(permuted, MODULES) == plan
