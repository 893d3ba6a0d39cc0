"""Crash injection around the campaign checkpoint + resume interop.

A worker killed mid-shard (or a checkpoint write that dies mid-save)
must never double-count detected faults on resume, a campaign started
with N workers must finish under M workers with bit-identical coverage,
a resume over a changed scenario set reuses every matching outcome, and
a directory in the retired one-file-per-shard layout is refused.
"""

import json
import os
from functools import partial

import pytest

from repro.core.determinism import Scenario
from repro.errors import CheckpointError
from repro.faults import (
    CampaignCheckpoint,
    ScenarioOutcome,
    run_parallel_checkpointed_campaign,
)
from repro.faults.orchestrator import CHECKPOINT_NAME
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


def recorded_labels(directory):
    """Labels in the campaign checkpoint, in recording order."""
    path = directory / CHECKPOINT_NAME
    if not path.exists():
        return []
    return [entry["label"] for entry in json.loads(path.read_text())["scenarios"]]


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
    assert victim.label not in recorded_labels(directory)

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
    assert victim.label in [t.label for t in resumed.shard_timings]
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
    # Shards run longest first: the three-core scenario, then the two
    # two-core ones by label.  The kill lands in the middle one.
    victim = SCENARIOS[0]
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
    assert recorded_labels(directory) == [SCENARIOS[2].label]


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


def test_crash_during_campaign_save_leaves_no_tmp_file(
    tmp_path, monkeypatch, reference
):
    directory = tmp_path / "campaign"

    def die(src, dst):
        raise OSError("simulated kill during rename")

    monkeypatch.setattr("repro.faults.campaign.os.replace", die)
    with pytest.raises(OSError, match="simulated kill"):
        run_small(directory, modules=("FWD",), workers=1)
    monkeypatch.undo()
    assert not (directory / CHECKPOINT_NAME).exists()
    assert not list(directory.glob("*.tmp*"))
    # Nothing was claimed, so the next run grades every scenario.
    result = run_small(directory, modules=("FWD",), workers=1)
    assert outcome_dicts(result.outcomes) == reference


# ----------------------------------------------------------------------
# Worker-count interop: start with N workers, finish with M != N.
# ----------------------------------------------------------------------


def test_resume_with_different_worker_count(tmp_path, reference):
    directory = tmp_path / "campaign"

    class Killed(Exception):
        pass

    def kill_after_first_shard(index, outcome):
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

    # Resume with a different worker count.
    resumed = run_parallel_checkpointed_campaign(
        small_provider(),
        SCENARIOS,
        DEFAULT_CAMPAIGN_MODELS,
        directory,
        modules=("FWD",),
        workers=3,
    )
    assert resumed.num_shards == 3
    # At least one shard was recorded before the kill, so the resume
    # re-schedules strictly fewer shards than the campaign has.
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
    # The pool workers wrote nothing: one checkpoint, no staging litter.
    assert {path.name for path in directory.iterdir()} == {CHECKPOINT_NAME}
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
# Resume hygiene.
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


def test_resume_with_changed_scenario_set_reuses_matching_outcomes(
    tmp_path, reference
):
    """A label fully determines its scenario, so a resume over a subset
    reuses every outcome it lists and a superset grades only the new
    scenarios; both are bit-identical to the uninterrupted run."""
    directory = tmp_path / "campaign"
    subset = run_parallel_checkpointed_campaign(
        small_provider(),
        SCENARIOS[:2],
        DEFAULT_CAMPAIGN_MODELS,
        directory,
        modules=("FWD",),
        workers=1,
    )
    assert outcome_dicts(subset.outcomes) == {
        label: reference[label] for label in subset.outcomes
    }
    assert run_parallel_checkpointed_campaign(
        small_provider(),
        SCENARIOS[1:2],
        DEFAULT_CAMPAIGN_MODELS,
        directory,
        modules=("FWD",),
        workers=1,
    ).scheduled == ()
    reordered = SCENARIOS[::-1]
    superset = run_parallel_checkpointed_campaign(
        small_provider(),
        reordered,
        DEFAULT_CAMPAIGN_MODELS,
        directory,
        modules=("FWD",),
        workers=2,
    )
    assert [t.label for t in superset.shard_timings] == [SCENARIOS[2].label]
    assert outcome_dicts(superset.outcomes) == reference
    # Outcomes come back in the caller's order.
    assert list(superset.outcomes) == [s.label for s in reordered]
    assert sorted(recorded_labels(directory)) == sorted(reference)


def test_old_layout_directory_is_refused(tmp_path):
    """A directory written with one checkpoint per shard and a
    ``manifest.json`` is refused by name, never silently re-run."""
    directory = tmp_path / "campaign"
    directory.mkdir()
    (directory / "manifest.json").write_text("{}")
    with pytest.raises(CheckpointError, match="manifest.json"):
        run_small(directory, modules=("FWD",), workers=1)
    assert {path.name for path in directory.iterdir()} == {"manifest.json"}
