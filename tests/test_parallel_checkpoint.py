"""Crash injection around per-shard checkpoints + worker-count interop.

A worker killed mid-shard (or a checkpoint or manifest write that dies
mid-save) must never double-count detected faults on resume, a
campaign started with N workers must finish under M workers with
bit-identical coverage, and a campaign directory laid out with several
scenarios per shard still resumes under its own manifest.
"""

import json
import os
from functools import partial

import pytest

from repro.core.determinism import Scenario
from repro.errors import CheckpointCorruptionWarning, CheckpointError
from repro.faults import (
    CampaignCheckpoint,
    ScenarioOutcome,
    merge_outcome_maps,
    plan_campaign_shards,
    run_parallel_checkpointed_campaign,
)
from repro.faults.campaign import CHECKPOINT_VERSION, content_digest
from repro.faults.parallel import MANIFEST_NAME
from repro.faults.workload import (
    DEFAULT_CAMPAIGN_MODELS,
    forwarding_builders,
    small_provider,
)
from repro.soc import CodeAlignment, CodePosition, placement_address

SCENARIOS = (
    Scenario((0, 1), CodePosition.LOW, CodeAlignment.QWORD),
    Scenario((0, 1), CodePosition.MID, CodeAlignment.WORD),
    Scenario((0, 1, 2), CodePosition.HIGH, CodeAlignment.WORD),
)


#: Shard labels of the campaign's one-scenario-per-shard plan.
PLAN = plan_campaign_shards(SCENARIOS, ("FWD",)).labels


def crashy_builders(sentinel: str, crash_at: int):
    """Builders whose core-0 program builder dies (a plain RuntimeError,
    deliberately NOT a contained ReproError) when asked to place its
    routine at ``crash_at`` — unless the sentinel file exists.  The
    placement address names the scenario, so the kill lands in one
    chosen shard.  Module-level so a ``partial`` of it pickles into
    worker processes."""
    builders = forwarding_builders(1, 1)
    inner = builders[0]

    def build(base_address: int):
        if base_address == crash_at and not os.path.exists(sentinel):
            raise RuntimeError("simulated worker kill mid-shard")
        return inner(base_address)

    builders[0] = build
    return builders


def core0_address(scenario) -> int:
    return placement_address(scenario.position, scenario.alignment, 0)


def pid_recording_provider(path: str):
    """``small_provider`` that appends the calling process's pid to
    ``path`` each time a shard builds its programs."""
    with open(path, "a") as handle:
        handle.write(f"{os.getpid()}\n")
    return small_provider()()


def outcome_dicts(outcomes):
    return {label: outcome.to_dict() for label, outcome in outcomes.items()}


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The uninterrupted campaign every recovery path must reproduce."""
    result = run_parallel_checkpointed_campaign(
        small_provider(),
        SCENARIOS,
        DEFAULT_CAMPAIGN_MODELS,
        tmp_path_factory.mktemp("reference"),
        modules=("FWD",),
        workers=1,
    )
    return outcome_dicts(result.outcomes)


# ----------------------------------------------------------------------
# Killed worker mid-shard: resume must not double-count.
# ----------------------------------------------------------------------


def test_killed_worker_mid_shard_resumes_without_double_count(
    tmp_path, reference
):
    directory = tmp_path / "campaign"
    sentinel = tmp_path / "sentinel"
    victim = SCENARIOS[1]
    provider = partial(crashy_builders, str(sentinel), core0_address(victim))

    # The kill lands inside the victim's shard, before its scenario is
    # graded, while the pool runs the other shards.
    with pytest.raises(RuntimeError, match="simulated worker kill"):
        run_parallel_checkpointed_campaign(
            provider,
            SCENARIOS,
            DEFAULT_CAMPAIGN_MODELS,
            directory,
            modules=("FWD",),
            workers=2,
        )
    # The killed shard never claimed its scenario.
    victim_index = PLAN.index((victim.label,))
    assert not (directory / f"shard_{victim_index:03d}.json").exists()

    # The worker is "replaced" (sentinel defuses the crash) and the
    # campaign resumed with a different worker count.
    sentinel.touch()
    resumed = run_parallel_checkpointed_campaign(
        provider,
        SCENARIOS,
        DEFAULT_CAMPAIGN_MODELS,
        directory,
        modules=("FWD",),
        workers=1,
    )
    assert victim_index in resumed.scheduled
    assert outcome_dicts(resumed.outcomes) == reference
    # Every scenario appears exactly once — coverage totals equal the
    # uninterrupted run's, so nothing was double-counted.
    assert sorted(resumed.outcomes) == sorted(s.label for s in SCENARIOS)


def test_unsupervised_workers_one_runs_shards_in_calling_process(
    tmp_path, reference
):
    pids = tmp_path / "pids"
    result = run_parallel_checkpointed_campaign(
        partial(pid_recording_provider, str(pids)),
        SCENARIOS,
        DEFAULT_CAMPAIGN_MODELS,
        tmp_path / "campaign",
        modules=("FWD",),
        workers=1,
    )
    # One provider call per shard, and one shard per scenario.
    assert pids.read_text().split() == [str(os.getpid())] * len(SCENARIOS)
    assert outcome_dicts(result.outcomes) == reference


def test_unsupervised_workers_one_reraises_shard_error_unchanged(tmp_path):
    directory = tmp_path / "campaign"
    # Shards run in plan order; the kill lands in the middle one.
    (victim,) = [s for s in SCENARIOS if (s.label,) == PLAN[1]]
    provider = partial(
        crashy_builders, str(tmp_path / "sentinel"), core0_address(victim)
    )
    with pytest.raises(RuntimeError, match="simulated worker kill") as info:
        run_parallel_checkpointed_campaign(
            provider,
            SCENARIOS,
            DEFAULT_CAMPAIGN_MODELS,
            directory,
            modules=("FWD",),
            workers=1,
        )
    # The builder's own exception, raised in this process: not wrapped
    # in an OrchestrationError, no remote traceback from a pool worker.
    assert type(info.value) is RuntimeError
    assert info.value.__cause__ is None
    # The shard before the kill survives; nothing after it ran.
    saved = json.loads((directory / "shard_000.json").read_text())
    assert len(saved["scenarios"]) == 1
    assert not (directory / "shard_001.json").exists()
    assert not (directory / "shard_002.json").exists()


def test_crash_during_checkpoint_save_rolls_back(tmp_path, monkeypatch):
    """A kill *inside* the checkpoint write must leave the previous
    consistent file and an in-memory map that matches it."""
    path = tmp_path / "c.json"
    checkpoint = CampaignCheckpoint(path, ("FWD",))
    checkpoint.record(ScenarioOutcome(label="s1"))

    def die(src, dst):
        raise OSError("simulated kill during rename")

    monkeypatch.setattr("repro.faults.campaign.os.replace", die)
    with pytest.raises(OSError, match="simulated kill"):
        checkpoint.record(ScenarioOutcome(label="s2"))
    monkeypatch.undo()

    # In-memory state rolled back: the checkpoint does not claim s2...
    assert checkpoint.done("s1") and not checkpoint.done("s2")
    # ... the on-disk file is the previous consistent state...
    reloaded = CampaignCheckpoint(path, ("FWD",))
    assert sorted(reloaded.outcomes) == ["s1"]
    # ... no staging litter survives, and recording works again.
    assert not list(tmp_path.glob("*.tmp*"))
    checkpoint.record(ScenarioOutcome(label="s2"))
    assert sorted(CampaignCheckpoint(path, ("FWD",)).outcomes) == ["s1", "s2"]


def test_failed_save_of_updated_outcome_restores_previous(
    tmp_path, monkeypatch
):
    path = tmp_path / "c.json"
    checkpoint = CampaignCheckpoint(path, ("FWD",))
    original = ScenarioOutcome(label="s1")
    checkpoint.record(original)
    monkeypatch.setattr(
        "repro.faults.campaign.os.replace",
        lambda src, dst: (_ for _ in ()).throw(OSError("kill")),
    )
    with pytest.raises(OSError):
        checkpoint.record(ScenarioOutcome(label="s1", error="RuntimeError: x"))
    assert checkpoint.outcomes["s1"] is original


def test_crash_during_manifest_save_leaves_no_tmp_file(
    tmp_path, monkeypatch, reference
):
    directory = tmp_path / "campaign"

    def die(src, dst):
        raise OSError("simulated kill during rename")

    monkeypatch.setattr("repro.faults.campaign.os.replace", die)
    with pytest.raises(OSError, match="simulated kill"):
        run_small(directory, modules=("FWD",), workers=1)
    monkeypatch.undo()
    assert not (directory / MANIFEST_NAME).exists()
    assert not list(directory.glob("*.tmp*"))
    # Nothing was claimed, so the next run plans and completes afresh.
    result = run_small(directory, modules=("FWD",), workers=1)
    assert outcome_dicts(result.outcomes) == reference


def test_merge_outcome_maps_rejects_duplicate_scenarios():
    a = {"s1": ScenarioOutcome(label="s1")}
    b = {"s2": ScenarioOutcome(label="s2"), "s1": ScenarioOutcome(label="s1")}
    with pytest.raises(CheckpointError, match="multiple shards"):
        merge_outcome_maps([a, b])
    merged = merge_outcome_maps([a, {"s2": ScenarioOutcome(label="s2")}])
    assert sorted(merged) == ["s1", "s2"]


# ----------------------------------------------------------------------
# Worker-count interop: start with N workers, finish with M != N.
# ----------------------------------------------------------------------


def test_resume_with_different_worker_count(tmp_path, reference):
    directory = tmp_path / "campaign"

    class Killed(Exception):
        pass

    def kill_after_first_shard(index, outcomes):
        raise Killed(f"killed after shard {index}")

    with pytest.raises(Killed):
        run_parallel_checkpointed_campaign(
            small_provider(),
            SCENARIOS,
            DEFAULT_CAMPAIGN_MODELS,
            directory,
            modules=("FWD",),
            workers=2,
            on_shard=kill_after_first_shard,
        )

    # Resume with a different worker count: the pinned manifest layout
    # wins.
    resumed = run_parallel_checkpointed_campaign(
        small_provider(),
        SCENARIOS,
        DEFAULT_CAMPAIGN_MODELS,
        directory,
        modules=("FWD",),
        workers=3,
    )
    assert resumed.num_shards == 3
    # At least one shard completed before the kill, so the resume
    # re-schedules strictly fewer shards than the manifest holds.
    assert len(resumed.scheduled) < resumed.num_shards
    assert outcome_dicts(resumed.outcomes) == reference


def test_fully_completed_campaign_resumes_as_pure_reads(tmp_path, reference):
    directory = tmp_path / "campaign"
    first = run_parallel_checkpointed_campaign(
        small_provider(),
        SCENARIOS,
        DEFAULT_CAMPAIGN_MODELS,
        directory,
        modules=("FWD",),
        workers=2,
    )
    assert outcome_dicts(first.outcomes) == reference
    second = run_parallel_checkpointed_campaign(
        small_provider(),
        SCENARIOS,
        DEFAULT_CAMPAIGN_MODELS,
        directory,
        modules=("FWD",),
        workers=4,
    )
    assert second.scheduled == ()  # nothing re-ran
    assert second.shard_timings == []
    assert outcome_dicts(second.outcomes) == reference


# ----------------------------------------------------------------------
# Manifest hygiene.
# ----------------------------------------------------------------------


def run_small(directory, **kwargs):
    return run_parallel_checkpointed_campaign(
        small_provider(),
        SCENARIOS,
        DEFAULT_CAMPAIGN_MODELS,
        directory,
        **kwargs,
    )


def test_resume_rejects_different_modules(tmp_path):
    directory = tmp_path / "campaign"
    run_small(directory, modules=("FWD",), workers=1)
    with pytest.raises(CheckpointError, match="refusing to mix"):
        run_small(directory, modules=("FWD", "ICU"), workers=1)


def test_resume_rejects_different_scenario_set(tmp_path):
    directory = tmp_path / "campaign"
    run_small(directory, modules=("FWD",), workers=1)
    with pytest.raises(CheckpointError, match="different scenario set"):
        run_parallel_checkpointed_campaign(
            small_provider(),
            SCENARIOS[:2],
            DEFAULT_CAMPAIGN_MODELS,
            directory,
            modules=("FWD",),
            workers=1,
        )


def test_garbage_manifest_is_quarantined_and_replanned(tmp_path, reference):
    """A rotted manifest is moved aside with a warning, not fatal: the
    layout is a pure function of the scenario set, so the campaign
    re-plans and completes with the reference outcomes."""
    directory = tmp_path / "campaign"
    directory.mkdir()
    (directory / MANIFEST_NAME).write_text("not json {")
    with pytest.warns(CheckpointCorruptionWarning, match="unreadable"):
        result = run_small(directory, modules=("FWD",), workers=1)
    sidecar = directory / (MANIFEST_NAME + ".corrupt")
    assert sidecar.exists()
    assert sidecar.read_text() == "not json {"  # evidence preserved
    assert (directory / MANIFEST_NAME).exists()  # fresh, valid manifest
    assert outcome_dicts(result.outcomes) == reference


def test_corrupt_manifest_replans_whatever_the_caller_order(
    tmp_path, reference
):
    """Re-planning after a lost manifest re-adopts every shard
    checkpoint even when the caller lists the scenarios differently
    from the first run: the layout depends on the set, not the order."""
    directory = tmp_path / "campaign"
    run_small(directory, modules=("FWD",), workers=1)
    (directory / MANIFEST_NAME).write_text("not json {")
    reordered = SCENARIOS[::-1]
    with pytest.warns(CheckpointCorruptionWarning):
        result = run_parallel_checkpointed_campaign(
            small_provider(),
            reordered,
            DEFAULT_CAMPAIGN_MODELS,
            directory,
            modules=("FWD",),
            workers=1,
        )
    assert result.scheduled == ()
    assert outcome_dicts(result.outcomes) == reference
    # Outcomes come back in the caller's order.
    assert list(result.outcomes) == [s.label for s in reordered]


def write_payload(path, data):
    path.write_text(json.dumps({**data, "digest": content_digest(data)}))


def test_multi_label_manifest_resumes_under_its_own_layout(
    tmp_path, reference
):
    """A directory laid out with several scenarios per shard (and an
    empty shard), holding a half-done shard checkpoint whose outcome
    still carries the old per-scenario ``attempts`` key, resumes under
    its pinned layout to the reference outcomes."""
    directory = tmp_path / "campaign"
    directory.mkdir()
    first, second, third = (s.label for s in SCENARIOS)
    layout = [[first, second], [], [third]]
    write_payload(
        directory / MANIFEST_NAME,
        {
            "version": CHECKPOINT_VERSION,
            "modules": ["FWD"],
            "num_shards": len(layout),
            "labels": layout,
        },
    )
    write_payload(
        directory / "shard_000.json",
        {
            "version": CHECKPOINT_VERSION,
            "modules": ["FWD"],
            "scenarios": [{**reference[first], "attempts": 1}],
        },
    )
    result = run_small(directory, modules=("FWD",), workers=1)
    assert result.num_shards == 3
    assert result.scheduled == (0, 2)
    assert outcome_dicts(result.outcomes) == reference
    assert json.loads((directory / MANIFEST_NAME).read_text())["labels"] == layout
    saved = json.loads((directory / "shard_000.json").read_text())
    assert [entry["label"] for entry in saved["scenarios"]] == [first, second]
