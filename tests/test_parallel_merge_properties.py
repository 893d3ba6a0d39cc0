"""Property-based tests of the coverage-merge reducer and the sharder.

The merge reducer must behave like integer addition over disjoint
shards: permutation-invariant, associative under any grouping, with the
empty shard as identity — and the sharder must produce a true partition
(complete, disjoint, deterministic) for any fault list and shard count.
Uses ``hypothesis`` when installed; otherwise the same properties run
over seeded randomized cases, so the suite is meaningful without the
optional dependency.
"""

import random

import pytest

from repro.errors import FaultModelError
from repro.faults import (
    check_partition,
    reduce_results,
    shard_faults,
    stable_shard_index,
)
from repro.faults.parallel import fault_identity
from repro.faults.ppsfp import FaultSimResult
from repro.faults.stuckat import StuckAtFault
from repro.faults.transition import TransitionFault

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on minimal installs
    HAVE_HYPOTHESIS = False

SEEDS = tuple(range(8))


def make_results(rng: random.Random, count: int) -> list[FaultSimResult]:
    return [
        FaultSimResult(
            module="m",
            total_faults=(total := rng.randint(0, 500)),
            detected_faults=rng.randint(0, total),
            num_patterns=17,
        )
        for _ in range(count)
    ]


def make_faults(rng: random.Random, count: int) -> list:
    """A mixed fault list: plain stuck-at, weighted pairs, transition."""
    faults = []
    for index in range(count):
        shape = rng.randrange(3)
        if shape == 0:
            faults.append(StuckAtFault(index, rng.randrange(2)))
        elif shape == 1:
            faults.append((StuckAtFault(index, rng.randrange(2)), rng.randint(1, 9)))
        else:
            faults.append(TransitionFault(index, rng.random() < 0.5))
    return faults


# ----------------------------------------------------------------------
# Reducer properties (seeded randomized — always run).
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_reduce_is_permutation_invariant(seed):
    rng = random.Random(seed)
    results = make_results(rng, rng.randint(1, 12))
    reference = reduce_results(list(results))
    for _ in range(5):
        shuffled = list(results)
        rng.shuffle(shuffled)
        merged = reduce_results(shuffled)
        assert (merged.total_faults, merged.detected_faults) == (
            reference.total_faults,
            reference.detected_faults,
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_remerge_idempotence(seed):
    """Reducing a singleton is the identity, and folding in empty-shard
    results (the merge identity) changes nothing."""
    rng = random.Random(seed)
    (result,) = make_results(rng, 1)
    assert reduce_results([result]) == result
    identity = FaultSimResult("m", 0, 0, 17)
    padded = reduce_results([identity, result, identity, identity])
    assert (padded.total_faults, padded.detected_faults) == (
        result.total_faults,
        result.detected_faults,
    )
    # Re-reducing an already-reduced result is stable.
    assert reduce_results([padded]) == padded


@pytest.mark.parametrize("seed", SEEDS)
def test_reduce_matches_arbitrary_groupings(seed):
    """Associativity: pre-merging any contiguous grouping first gives
    the same answer as the flat reduction."""
    rng = random.Random(seed)
    results = make_results(rng, rng.randint(2, 10))
    flat = reduce_results(list(results))
    cut = rng.randint(1, len(results) - 1)
    grouped = reduce_results(
        [reduce_results(results[:cut]), reduce_results(results[cut:])]
    )
    assert (grouped.total_faults, grouped.detected_faults) == (
        flat.total_faults,
        flat.detected_faults,
    )


def test_reduce_rejects_incompatible_shards():
    a = FaultSimResult("m", 10, 5, 17)
    with pytest.raises(FaultModelError):
        reduce_results([a, FaultSimResult("other", 10, 5, 17)])
    with pytest.raises(FaultModelError):
        reduce_results([a, FaultSimResult("m", 10, 5, 3)])
    with pytest.raises(FaultModelError):
        reduce_results([])


# ----------------------------------------------------------------------
# Sharder properties: disjoint-shard completeness.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_shards_partition_the_fault_list(seed):
    rng = random.Random(seed)
    faults = make_faults(rng, rng.randint(0, 60))
    num_shards = rng.choice((1, 2, 7, 16))
    shards = shard_faults(faults, num_shards)
    assert len(shards) == num_shards
    check_partition(faults, shards)  # completeness + disjointness
    # Completeness, independently of check_partition's own accounting.
    flattened = sorted(fault_identity(item) for shard in shards for item in shard)
    assert flattened == sorted(fault_identity(item) for item in faults)
    # Disjointness: distinct identities never land in two shards.
    seen: dict[str, int] = {}
    for index, shard in enumerate(shards):
        for item in shard:
            identity = fault_identity(item)
            assert seen.setdefault(identity, index) == index
    # Weighted pairs keep their weights through sharding.
    total_weight = sum(
        item[1] if isinstance(item, tuple) else 1 for item in faults
    )
    assert total_weight == sum(
        item[1] if isinstance(item, tuple) else 1
        for shard in shards
        for item in shard
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_shard_assignment_is_deterministic(seed):
    rng = random.Random(seed)
    faults = make_faults(rng, 40)
    assert shard_faults(faults, 7) == shard_faults(list(faults), 7)


def test_check_partition_catches_loss_and_duplication():
    faults = [StuckAtFault(n, 0) for n in range(6)]
    shards = shard_faults(faults, 3)
    donor = next(shard for shard in shards if shard)
    dropped = [list(s) for s in shards]
    dropped[shards.index(donor)] = donor[1:]
    with pytest.raises(FaultModelError):
        check_partition(faults, dropped)
    duplicated = [list(s) for s in shards]
    duplicated[0] = duplicated[0] + [donor[0]]
    with pytest.raises(FaultModelError):
        check_partition(faults, duplicated)


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
# The same properties under hypothesis, when available.
# ----------------------------------------------------------------------

if HAVE_HYPOTHESIS:

    result_strategy = st.builds(
        lambda total, frac: FaultSimResult(
            "m", total, min(total, frac), 17
        ),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
    )

    fault_strategy = st.one_of(
        st.builds(StuckAtFault, st.integers(0, 999), st.integers(0, 1)),
        st.tuples(
            st.builds(StuckAtFault, st.integers(0, 999), st.integers(0, 1)),
            st.integers(1, 9),
        ),
        st.builds(TransitionFault, st.integers(0, 999), st.booleans()),
    )

    @settings(max_examples=50, deadline=None)
    @given(
        results=st.lists(result_strategy, min_size=1, max_size=12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_hypothesis_permutation_invariance(results, seed):
        reference = reduce_results(list(results))
        shuffled = list(results)
        random.Random(seed).shuffle(shuffled)
        merged = reduce_results(shuffled)
        assert (merged.total_faults, merged.detected_faults) == (
            reference.total_faults,
            reference.detected_faults,
        )

    @settings(max_examples=50, deadline=None)
    @given(
        faults=st.lists(fault_strategy, max_size=80),
        num_shards=st.integers(1, 32),
    )
    def test_hypothesis_partition_completeness(faults, num_shards):
        shards = shard_faults(faults, num_shards)
        check_partition(faults, shards)
        assert sorted(
            fault_identity(item) for shard in shards for item in shard
        ) == sorted(fault_identity(item) for item in faults)
