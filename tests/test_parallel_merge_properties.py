"""Property tests of the deterministic scenario sharder.

A sharded campaign is only equivalent to the serial one if its shard
layout is a true partition of the scenario matrix: every label in
exactly one shard, campaign order kept inside each shard (so a shard
checkpoint lists its scenarios in the order the serial campaign would
have recorded them), and the same layout on every call and in every
process.  A label's shard depends on the label alone, never on which
other scenarios the matrix holds.  The hash under the layout is pinned
too, so a silent change of hashing scheme cannot reshuffle existing
manifests.  The partition property also runs under ``hypothesis`` when
it is installed.
"""

import random

import pytest

from repro.core.determinism import default_scenarios
from repro.errors import FaultModelError
from repro.faults import plan_campaign_shards, stable_shard_index

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on minimal installs
    HAVE_HYPOTHESIS = False

MODULES = ("FWD", "HDCU", "ICU")
SEEDS = tuple(range(8))


def check_plan_partition(scenarios, plan):
    """Every label of ``scenarios`` in exactly one shard of ``plan``."""
    flattened = [label for shard in plan.labels for label in shard]
    assert sorted(flattened) == sorted(scenario.label for scenario in scenarios)
    assert len(set(flattened)) == len(flattened)


@pytest.mark.parametrize("num_shards", (1, 2, 7, 16, 40))
def test_scenario_plan_partitions_the_matrix(num_shards):
    scenarios = default_scenarios()
    labels = [scenario.label for scenario in scenarios]
    plan = plan_campaign_shards(scenarios, MODULES, num_shards)
    assert plan.num_shards == len(plan.labels) == num_shards
    # Complete and disjoint: every label lands in exactly one shard.
    check_plan_partition(scenarios, plan)
    # Campaign order inside each shard.
    position = {label: index for index, label in enumerate(labels)}
    for shard in plan.labels:
        assert [position[label] for label in shard] == sorted(
            position[label] for label in shard
        )
    # Deterministic: a fresh scenario list plans the same layout.
    assert plan_campaign_shards(default_scenarios(), MODULES, num_shards) == plan


@pytest.mark.parametrize("seed", SEEDS)
def test_shard_assignment_is_deterministic(seed):
    """Planning a random sub-matrix puts each label in the shard the
    full matrix gives it, in the same order, on every call."""
    rng = random.Random(seed)
    scenarios = default_scenarios()
    subset = [s for s in scenarios if rng.random() < 0.5]
    num_shards = rng.choice((1, 2, 7, 16))
    full = plan_campaign_shards(scenarios, MODULES, num_shards)
    partial = plan_campaign_shards(subset, MODULES, num_shards)
    assert plan_campaign_shards(list(subset), MODULES, num_shards) == partial
    kept = {scenario.label for scenario in subset}
    for index in range(num_shards):
        assert list(partial.labels[index]) == [
            label for label in full.labels[index] if label in kept
        ]
        for label in partial.labels[index]:
            assert stable_shard_index(label, num_shards) == index


def test_stable_shard_index_is_pinned():
    """The hash is CRC-32 of the identity — pinned so a silent change
    of hashing scheme (e.g. to salted ``hash()``) fails loudly."""
    import zlib

    for identity in ("net0/SA0", "net31/SA1", "net7/STR"):
        for shards in (1, 2, 7, 16):
            assert stable_shard_index(identity, shards) == (
                zlib.crc32(identity.encode()) % shards
            )
    with pytest.raises(FaultModelError):
        stable_shard_index("net0/SA0", 0)


# ----------------------------------------------------------------------
# The partition property under hypothesis, when available.
# ----------------------------------------------------------------------

if HAVE_HYPOTHESIS:

    @settings(max_examples=50, deadline=None)
    @given(
        picks=st.sets(st.integers(0, len(default_scenarios()) - 1)),
        num_shards=st.integers(1, 32),
    )
    def test_hypothesis_partition_completeness(picks, num_shards):
        scenarios = [default_scenarios()[index] for index in sorted(picks)]
        plan = plan_campaign_shards(scenarios, MODULES, num_shards)
        assert plan.num_shards == len(plan.labels) == num_shards
        check_plan_partition(scenarios, plan)
