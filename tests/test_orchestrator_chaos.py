"""Chaos-injection proof of the supervised orchestrator's contract.

The invariant under test: a campaign run under injected infrastructure
failure — worker kills, transient exceptions, hung shards, corrupted
checkpoint bytes — produces results **bit-identical** to a clean run
whenever no shard ends quarantined.
Retries, pool rebuilds and straggler re-dispatch are allowed to cost
wall-clock; they are never allowed to change a number.

A poison shard (fails every attempt) is the complement: the campaign
must *complete* anyway, with the loss enumerated — an explicit
quarantine roster, outcomes for exactly the surviving scenarios, and a
distinct :class:`~repro.errors.OrchestrationError` when the caller did
not opt into partial results.

The chaos decisions themselves are pure functions of (shard, attempt),
so the orchestrator's decision sequence is deterministic too — pinned
via :meth:`OrchestrationReport.stable_dict` across repeated runs.
"""

import json

import pytest

from repro.core.determinism import Scenario, default_scenarios
from repro.errors import (
    CheckpointCorruptionWarning,
    CheckpointError,
    OrchestrationError,
)
from repro.faults import (
    ChaosError,
    ChaosPolicy,
    ParallelCampaignResult,
    RetryPolicy,
    ShardChaos,
    run_parallel_checkpointed_campaign,
)
from repro.faults.chaos import corrupt_file
from repro.faults.orchestrator import (
    BACKOFF_MAX,
    CHECKPOINT_NAME,
    MAX_POOL_REBUILDS,
    ORCHESTRATION_REPORT_NAME,
    OrchestrationReport,
    backoff_delay,
)
from repro.faults.workload import DEFAULT_CAMPAIGN_MODELS, small_provider
from repro.soc import CodeAlignment, CodePosition

SCENARIOS = (
    Scenario((0, 1), CodePosition.LOW, CodeAlignment.QWORD),
    Scenario((0, 1), CodePosition.MID, CodeAlignment.WORD),
)

WORKER_COUNTS = (1, 2, 4)


def outcome_dicts(result):
    return {label: o.to_dict() for label, o in result.outcomes.items()}


def run_campaign(
    directory, *, chaos=None, policy=None, scenarios=SCENARIOS, **kwargs
):
    kwargs.setdefault("modules", ("FWD",))
    kwargs.setdefault("workers", 2)
    return run_parallel_checkpointed_campaign(
        small_provider(), scenarios, DEFAULT_CAMPAIGN_MODELS, directory,
        chaos=chaos, policy=policy, **kwargs,
    )


@pytest.fixture(scope="module")
def campaign_reference(tmp_path_factory):
    """The clean, unsupervised campaign every chaos run must reproduce."""
    result = run_campaign(tmp_path_factory.mktemp("reference"), workers=1)
    return outcome_dicts(result)


def campaign_chaos(kind):
    """Shard-0 directive for one named campaign chaos case."""
    if kind == "transient":
        return ShardChaos(kind="transient", failures=1)
    if kind == "kill":
        return ShardChaos(kind="kill", failures=1)
    if kind == "hang":
        return ShardChaos(kind="hang", failures=1, hang_seconds=30.0)
    raise AssertionError(kind)


# ----------------------------------------------------------------------
# The headline invariant: chaos campaigns are bit-identical.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("kind", ("transient", "kill", "hang"))
def test_chaos_campaign_is_bit_identical(
    tmp_path, campaign_reference, kind, workers
):
    chaos = ChaosPolicy({0: campaign_chaos(kind)})
    policy = RetryPolicy(shard_timeout=1.0 if kind == "hang" else None)
    result = run_campaign(
        tmp_path / "campaign", chaos=chaos, policy=policy, workers=workers
    )
    assert isinstance(result, ParallelCampaignResult)
    assert result.complete
    assert result.quarantined_shards == ()
    assert outcome_dicts(result) == campaign_reference
    failures = [a for a in result.report.attempts if a.status != "ok"]
    if kind in ("transient", "hang"):
        assert failures, "chaos did not fire"
    else:
        # A kill breaks the pool; the charge lands only if the shard
        # breaks it again *in isolation* (here failures=1 means the
        # isolated re-run succeeds), but the rebuild always happens.
        assert result.report.pool_rebuilds >= 1
    if kind == "hang":
        assert result.report.stragglers >= 1


def test_slow_shards_never_queue_behind_their_deadline(tmp_path):
    """Every shard takes a quarter of the deadline and one worker runs
    them all: a shard's deadline counts from its dispatch, so it must
    not start ticking while the shard waits behind the others."""
    scenarios = [s for s in default_scenarios() if len(s.active_cores) == 2]
    scenarios = scenarios[:6]
    clean = run_campaign(tmp_path / "clean", scenarios=scenarios, workers=1)
    # Unsupervised workers=1 runs in-process without being "degraded".
    assert all(a.in_process for a in clean.report.attempts)
    assert not clean.report.degraded_serial
    chaos = ChaosPolicy(
        {
            index: ShardChaos(kind="hang", failures=None, hang_seconds=0.5)
            for index in range(len(scenarios))
        }
    )
    result = run_campaign(
        tmp_path / "slow",
        scenarios=scenarios,
        workers=1,
        chaos=chaos,
        policy=RetryPolicy(shard_timeout=2.0),
    )
    assert [a.status for a in result.report.attempts] == ["ok"] * 6
    assert result.report.stragglers == 0
    assert outcome_dicts(result) == outcome_dicts(clean)


def test_chaos_decision_sequence_is_deterministic(
    tmp_path, campaign_reference
):
    """Two runs under the same chaos + retry policies make the same
    decisions: equal stable report projections, equal outcomes."""
    chaos = ChaosPolicy(
        {
            0: ShardChaos(kind="transient", failures=2),
            1: ShardChaos(kind="kill", failures=1),
        }
    )
    reports = []
    for name in ("a", "b"):
        result = run_campaign(
            tmp_path / name, chaos=chaos, policy=RetryPolicy()
        )
        assert outcome_dicts(result) == campaign_reference
        reports.append(result.report.stable_dict())
    assert reports[0] == reports[1]


# ----------------------------------------------------------------------
# Poison shards: quarantine, explicit accounting, distinct error.
# ----------------------------------------------------------------------


def test_poison_shard_completes_campaign_with_quarantine_roster(
    tmp_path, campaign_reference
):
    chaos = ChaosPolicy({1: ShardChaos(kind="transient", failures=None)})
    result = run_campaign(
        tmp_path / "campaign",
        chaos=chaos,
        policy=RetryPolicy(max_retries=1, allow_partial=True),
    )
    assert not result.complete
    assert result.quarantined_shards == (1,)
    # Surviving scenarios carry clean-run outcomes; lost ones are
    # enumerated, not silently dropped from the denominator.
    survivors = set(result.outcomes)
    lost = set(result.quarantined_labels)
    assert survivors.isdisjoint(lost)
    assert survivors | lost == {s.label for s in SCENARIOS}
    for label in survivors:
        assert outcome_dicts(result)[label] == campaign_reference[label]
    # The quarantined shard burned max_retries + 1 attempts.
    attempts = [a for a in result.report.attempts if a.shard == 1]
    assert [a.status for a in attempts] == ["error", "error"]


def test_poison_without_allow_partial_raises_orchestration_error(tmp_path):
    chaos = ChaosPolicy({1: ShardChaos(kind="transient", failures=None)})
    with pytest.raises(OrchestrationError, match="quarantined shard"):
        run_campaign(
            tmp_path / "campaign",
            chaos=chaos,
            policy=RetryPolicy(max_retries=1),
        )
    # The report still landed next to the checkpoint for post-mortem.
    report_path = tmp_path / "campaign" / ORCHESTRATION_REPORT_NAME
    assert report_path.exists()
    report = OrchestrationReport.from_dict(
        json.loads(report_path.read_text())
    )
    assert report.quarantined == [1]


# ----------------------------------------------------------------------
# Checkpoint corruption under supervision.
# ----------------------------------------------------------------------


def test_corrupted_checkpoints_recover_under_supervision(
    tmp_path, campaign_reference
):
    """Corrupt the checkpoint of a finished campaign, then resume
    supervised *with* chaos on one recomputed shard: quarantine of the
    rotted bytes + retry of the injected failure still converge to the
    clean outcomes."""
    directory = tmp_path / "campaign"
    clean = run_campaign(directory, policy=RetryPolicy())
    # Supervision without chaos changes nothing either.
    assert outcome_dicts(clean) == campaign_reference
    assert clean.quarantined_shards == ()
    corrupt_file(directory / CHECKPOINT_NAME, "tamper")
    chaos = ChaosPolicy({0: ShardChaos(kind="transient", failures=1)})
    with pytest.warns(CheckpointCorruptionWarning):
        result = run_campaign(
            directory, chaos=chaos, policy=RetryPolicy()
        )
    assert result.complete
    assert outcome_dicts(result) == campaign_reference
    # Every scenario the rotted file held was graded again.
    assert result.scheduled == tuple(range(len(SCENARIOS)))
    retried = [a for a in result.report.attempts if a.status != "ok"]
    assert retried and all(a.shard == 0 for a in retried)


# ----------------------------------------------------------------------
# Degraded serial endgame.
# ----------------------------------------------------------------------


def test_repeated_pool_death_degrades_to_serial(
    tmp_path, campaign_reference
):
    # The first kill breaks a shared pool (uncharged); the next
    # MAX_POOL_REBUILDS kills run in isolation and exhaust the rebuilds;
    # the last one fires in-process.
    chaos = ChaosPolicy(
        {0: ShardChaos(kind="kill", failures=MAX_POOL_REBUILDS + 1)}
    )
    result = run_campaign(
        tmp_path / "campaign", chaos=chaos, policy=RetryPolicy(max_retries=5)
    )
    assert result.report.degraded_serial
    assert any(a.in_process for a in result.report.attempts)
    # In-process, the kill downgrades to a raised ChaosError (the host
    # must survive); semantics are otherwise unchanged.
    assert any(
        a.error and "ChaosError" in a.error
        for a in result.report.attempts
    )
    assert result.complete
    assert outcome_dicts(result) == campaign_reference


# ----------------------------------------------------------------------
# Deterministic backoff.
# ----------------------------------------------------------------------


def _backoff_schedule(shard):
    return [backoff_delay(shard, failure) for failure in range(1, 13)]


def test_backoff_schedule_is_a_pure_function():
    for shard in range(8):
        assert _backoff_schedule(shard) == _backoff_schedule(shard)
    # Different shards de-synchronise the jitter at every failure count
    # below the cap.
    for failure in range(1, 10):
        assert len({backoff_delay(s, failure) for s in range(8)}) > 1
    assert _backoff_schedule(0) != _backoff_schedule(1)


def test_backoff_grows_and_respects_cap():
    delays = _backoff_schedule(0)
    assert all(0.0 < delay <= BACKOFF_MAX for delay in delays)
    assert delays[-1] == BACKOFF_MAX  # capped
    # Exponential growth before the cap bites.
    uncapped = [d for d in delays if d < BACKOFF_MAX]
    assert uncapped == sorted(uncapped)


# ----------------------------------------------------------------------
# The orchestration report: the run's one record of its decisions.
# ----------------------------------------------------------------------


def test_report_records_retry_and_quarantine(tmp_path):
    chaos = ChaosPolicy({0: ShardChaos(kind="transient", failures=None)})
    result = run_campaign(
        tmp_path / "campaign",
        chaos=chaos,
        policy=RetryPolicy(max_retries=1, allow_partial=True),
    )
    report = result.report
    shard0 = sorted(
        (a for a in report.attempts if a.shard == 0), key=lambda a: a.attempt
    )
    assert [a.status for a in shard0] == ["error", "error"]
    assert shard0[0].backoff == backoff_delay(0, 1) > 0.0
    assert report.quarantined == [0]


def test_report_round_trips_and_lands_on_disk(tmp_path):
    chaos = ChaosPolicy({0: ShardChaos(kind="transient", failures=1)})
    result = run_campaign(
        tmp_path / "campaign", chaos=chaos, policy=RetryPolicy()
    )
    path = tmp_path / "campaign" / ORCHESTRATION_REPORT_NAME
    loaded = OrchestrationReport.from_dict(json.loads(path.read_text()))
    assert loaded.stable_dict() == result.report.stable_dict()
    assert loaded.retried_shards == [0]
    assert [a.backoff for a in loaded.attempts if a.status != "ok"] == [
        backoff_delay(0, 1)
    ]


def test_chaos_without_policy_is_rejected(tmp_path):
    with pytest.raises(CheckpointError, match="require a RetryPolicy"):
        run_campaign(
            tmp_path / "campaign",
            chaos=ChaosPolicy({0: ShardChaos()}),
        )


def test_chaos_error_escapes_scenario_supervision():
    # Scenario grading records a ReproError as the outcome; chaos must
    # model the layer below it and reach the orchestrator.
    from repro.errors import ReproError

    assert not issubclass(ChaosError, ReproError)
    with pytest.raises(ChaosError):
        ChaosPolicy({0: ShardChaos()}).fire(0, 1, in_process=True)
