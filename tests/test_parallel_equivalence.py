"""Differential serial-vs-parallel equivalence for every fault model.

The parallel engine's contract is that no (workers, num_shards)
geometry changes a single reported number.  These tests pin that
contract for the three fault models — uncollapsed stuck-at, weighted
PPSFP (collapsed equivalence classes) and transition-delay — across
shard counts {1, 2, 7, 16}, odd shard shapes (empty shards, a
single-fault shard) and real process pools, and for the campaign layer
including the per-core signatures each scenario records.
"""

import pytest

from repro.core.determinism import Scenario, run_scenario
from repro.cpu.core import CORE_MODEL_A
from repro.faults import (
    fault_simulate,
    get_modules,
    parallel_fault_simulate,
    parallel_transition_fault_simulate,
    run_checkpointed_campaign,
    run_parallel_checkpointed_campaign,
    shard_faults,
)
from repro.faults.observability import forwarding_pattern_sets
from repro.faults.stuckat import collapse_with_weights, enumerate_faults
from repro.faults.transition import (
    enumerate_transition_faults,
    transition_fault_simulate,
)
from repro.faults.workload import DEFAULT_CAMPAIGN_MODELS, small_provider
from repro.soc import CodeAlignment, CodePosition

SHARD_COUNTS = (1, 2, 7, 16)

SCENARIOS = (
    Scenario((0, 1), CodePosition.LOW, CodeAlignment.QWORD),
    Scenario((0, 1), CodePosition.MID, CodeAlignment.WORD),
    Scenario((0, 1, 2), CodePosition.HIGH, CodeAlignment.DWORD),
)


@pytest.fixture(scope="module")
def fwd_port():
    """One forwarding port's netlist + merged and ordered pattern sets
    from a real (small) two-core run."""
    builders = small_provider()()
    result = run_scenario(builders, SCENARIOS[0])
    modules = get_modules(CORE_MODEL_A)
    log = result.per_core[0].log
    merged = forwarding_pattern_sets(log, modules)
    ordered = forwarding_pattern_sets(log, modules, ordered=True)
    port = sorted(merged)[0]
    return modules.forwarding[port], merged[port], ordered[port]


def as_tuple(result):
    return (
        result.module,
        result.total_faults,
        result.detected_faults,
        result.num_patterns,
    )


# ----------------------------------------------------------------------
# Fault-model equivalence across shard counts (in-process sharding).
# ----------------------------------------------------------------------


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_stuckat_equivalence_across_shard_counts(fwd_port, num_shards):
    netlist, patterns, _ = fwd_port
    faults = enumerate_faults(netlist)
    serial = fault_simulate(netlist, patterns, faults)
    parallel = parallel_fault_simulate(
        netlist, patterns, faults, workers=1, num_shards=num_shards
    )
    assert as_tuple(parallel) == as_tuple(serial)


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_weighted_ppsfp_equivalence_across_shard_counts(fwd_port, num_shards):
    netlist, patterns, _ = fwd_port
    weighted = collapse_with_weights(netlist)
    serial = fault_simulate(netlist, patterns, weighted)
    parallel = parallel_fault_simulate(
        netlist, patterns, weighted, workers=1, num_shards=num_shards
    )
    assert as_tuple(parallel) == as_tuple(serial)
    # The weighted totals must still count the uncollapsed population.
    assert parallel.total_faults == 2 * netlist.num_nets


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_transition_equivalence_across_shard_counts(fwd_port, num_shards):
    netlist, _, ordered = fwd_port
    faults = enumerate_transition_faults(netlist)
    serial = transition_fault_simulate(netlist, ordered, faults)
    parallel = parallel_transition_fault_simulate(
        netlist, ordered, faults, workers=1, num_shards=num_shards
    )
    assert as_tuple(parallel) == as_tuple(serial)


def test_default_fault_lists_match_serial_defaults(fwd_port):
    """Omitting ``faults`` must grade the same default list serially
    and in parallel (collapsed stuck-at classes)."""
    netlist, patterns, _ = fwd_port
    serial = fault_simulate(netlist, patterns)
    parallel = parallel_fault_simulate(
        netlist, patterns, workers=1, num_shards=7
    )
    assert as_tuple(parallel) == as_tuple(serial)


# ----------------------------------------------------------------------
# Real process pools.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workers,num_shards", [(2, 2), (2, 7), (4, 16)])
def test_stuckat_equivalence_with_process_pool(fwd_port, workers, num_shards):
    netlist, patterns, _ = fwd_port
    serial = fault_simulate(netlist, patterns)
    parallel = parallel_fault_simulate(
        netlist, patterns, workers=workers, num_shards=num_shards
    )
    assert as_tuple(parallel) == as_tuple(serial)


def test_transition_equivalence_with_process_pool(fwd_port):
    netlist, _, ordered = fwd_port
    serial = transition_fault_simulate(netlist, ordered)
    parallel = parallel_transition_fault_simulate(
        netlist, ordered, workers=2, num_shards=7
    )
    assert as_tuple(parallel) == as_tuple(serial)


# ----------------------------------------------------------------------
# Odd shard shapes.
# ----------------------------------------------------------------------


def test_empty_shards_are_harmless(fwd_port):
    """More shards than faults leaves some shards empty; they must
    contribute exactly (0, 0) to the merge."""
    netlist, patterns, _ = fwd_port
    faults = enumerate_faults(netlist)[:5]
    shards = shard_faults(faults, 16)
    assert any(not shard for shard in shards)  # genuinely empty shards
    serial = fault_simulate(netlist, patterns, faults)
    parallel = parallel_fault_simulate(
        netlist, patterns, faults, workers=1, num_shards=16
    )
    assert as_tuple(parallel) == as_tuple(serial)


def test_single_fault_shard(fwd_port):
    netlist, patterns, _ = fwd_port
    faults = enumerate_faults(netlist)[:1]
    serial = fault_simulate(netlist, patterns, faults)
    parallel = parallel_fault_simulate(
        netlist, patterns, faults, workers=1, num_shards=7
    )
    assert as_tuple(parallel) == as_tuple(serial)
    assert parallel.total_faults == 1


def test_workers_one_is_exact_serial_path(fwd_port):
    """``workers=1`` without an explicit shard count must not shard at
    all — it is the serial engine called through the parallel API."""
    netlist, patterns, _ = fwd_port
    serial = fault_simulate(netlist, patterns)
    parallel = parallel_fault_simulate(netlist, patterns, workers=1)
    assert as_tuple(parallel) == as_tuple(serial)


def test_unsupervised_workers_one_grades_shards_in_calling_process(
    fwd_port, tmp_path, monkeypatch
):
    """No policy and ``workers=1``: every shard is graded in this
    process (a forked pool worker would record its own pid)."""
    import os

    import repro.faults.orchestrator as orchestrator

    netlist, patterns, _ = fwd_port
    faults = enumerate_faults(netlist)[:200]
    pids = tmp_path / "pids"
    grade = orchestrator.fault_simulate

    def recording_grade(*args, **kwargs):
        with open(pids, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        return grade(*args, **kwargs)

    monkeypatch.setattr(orchestrator, "fault_simulate", recording_grade)
    parallel = parallel_fault_simulate(
        netlist, patterns, faults, workers=1, num_shards=7
    )
    assert pids.read_text().split() == [str(os.getpid())] * 7
    assert as_tuple(parallel) == as_tuple(fault_simulate(netlist, patterns, faults))


# ----------------------------------------------------------------------
# Campaign-level equivalence: coverage dicts AND signatures.
# ----------------------------------------------------------------------


def outcome_dicts(outcomes):
    return {label: outcome.to_dict() for label, outcome in outcomes.items()}


@pytest.fixture(scope="module")
def serial_campaign(tmp_path_factory):
    path = tmp_path_factory.mktemp("serial") / "campaign.json"
    return run_checkpointed_campaign(
        small_provider()(),
        SCENARIOS,
        DEFAULT_CAMPAIGN_MODELS,
        path,
        modules=("FWD",),
    )


@pytest.mark.parametrize("workers,num_shards", [(1, None), (2, 3), (2, 7)])
def test_campaign_equivalence(
    serial_campaign, tmp_path, workers, num_shards
):
    result = run_parallel_checkpointed_campaign(
        small_provider(),
        SCENARIOS,
        DEFAULT_CAMPAIGN_MODELS,
        tmp_path / "parallel",
        modules=("FWD",),
        workers=workers,
        num_shards=num_shards,
    )
    assert outcome_dicts(result.outcomes) == outcome_dicts(serial_campaign)
    # Signatures are part of the contract: identical per core, per
    # scenario, whatever the pool geometry.
    for label, outcome in result.outcomes.items():
        assert outcome.signatures == serial_campaign[label].signatures
        assert outcome.signatures  # actually recorded, not vacuous


def test_campaign_preserves_scenario_order(serial_campaign, tmp_path):
    result = run_parallel_checkpointed_campaign(
        small_provider(),
        SCENARIOS,
        DEFAULT_CAMPAIGN_MODELS,
        tmp_path / "ordered",
        modules=("FWD",),
        workers=2,
        num_shards=2,
    )
    assert list(result.outcomes) == [s.label for s in SCENARIOS]
    assert list(result.outcomes) == list(serial_campaign)


def test_campaign_multi_module_equivalence(tmp_path):
    """Grading several fault lists at once stays equivalent too."""
    modules = ("FWD", "ICU")
    serial = run_checkpointed_campaign(
        small_provider()(),
        SCENARIOS[:2],
        DEFAULT_CAMPAIGN_MODELS,
        tmp_path / "serial.json",
        modules=modules,
    )
    parallel = run_parallel_checkpointed_campaign(
        small_provider(),
        SCENARIOS[:2],
        DEFAULT_CAMPAIGN_MODELS,
        tmp_path / "parallel",
        modules=modules,
        workers=2,
        num_shards=2,
    )
    assert outcome_dicts(parallel.outcomes) == outcome_dicts(serial)
