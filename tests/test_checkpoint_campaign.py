"""Checkpoint/resume of coverage campaigns (durability).

The campaign runs in this process (``workers=1``, no policy), so the
kill is an exception raised from its ``on_shard`` hook.
"""

import functools
import json

import pytest

from repro.core import cache_wrapped_builder
from repro.core.determinism import Scenario, run_scenario
from repro.cpu.core import CORE_MODEL_A, CORE_MODEL_B
from repro.errors import CheckpointCorruptionWarning, CheckpointError
from repro.faults import (
    CampaignCheckpoint,
    ScenarioOutcome,
    run_parallel_checkpointed_campaign,
)
from repro.soc import CodeAlignment, CodePosition
from repro.stl import RoutineContext
from repro.stl.routines import make_forwarding_routine

MODELS = {0: CORE_MODEL_A, 1: CORE_MODEL_B}


def builders():
    out = {}
    for core_id, model in MODELS.items():
        ctx = RoutineContext.for_core(core_id, model)
        routine = make_forwarding_routine(
            model, with_pcs=False, patterns_per_path=1, load_use_blocks=1
        )
        out[core_id] = cache_wrapped_builder(routine, ctx)
    return out


def scenarios():
    return (
        Scenario((0, 1), CodePosition.LOW, CodeAlignment.QWORD),
        Scenario((0, 1), CodePosition.MID, CodeAlignment.WORD),
    )


def run_all(directory, on_shard=None):
    return run_parallel_checkpointed_campaign(
        builders,
        scenarios(),
        MODELS,
        directory,
        modules=("FWD",),
        on_shard=on_shard,
    ).outcomes


def as_dicts(outcomes):
    return {label: outcome.to_dict() for label, outcome in outcomes.items()}


# ----------------------------------------------------------------------
# Acceptance (c): kill mid-run, resume, identical coverage.
# ----------------------------------------------------------------------


def test_killed_campaign_resumes_with_identical_coverage(tmp_path):
    reference = run_all(tmp_path / "reference")
    assert len(reference) == 2
    assert all(not o.failed for o in reference.values())
    assert all(o.coverages for o in reference.values())

    # Simulated kill: the process dies right after the first scenario is
    # checkpointed (on_shard fires post-checkpoint, and a non-ReproError
    # is deliberately NOT contained by the campaign).
    directory = tmp_path / "campaign"

    def die(index, outcome):
        raise KeyboardInterrupt("killed mid-campaign")

    with pytest.raises(KeyboardInterrupt):
        run_all(directory, on_shard=die)
    saved = json.loads((directory / "campaign.json").read_text())
    assert len(saved["scenarios"]) == 1
    (killed_after,) = (entry["label"] for entry in saved["scenarios"])

    # Resume: only the remaining scenario runs...
    resumed_labels = []
    outcomes = run_all(
        directory, on_shard=lambda i, o: resumed_labels.append(o.label)
    )
    assert resumed_labels == [
        s.label for s in scenarios() if s.label != killed_after
    ]
    # ... and the merged result matches the uninterrupted campaign.
    assert as_dicts(outcomes) == as_dicts(reference)


def test_completed_campaign_reruns_as_pure_checkpoint_reads(tmp_path):
    directory = tmp_path / "campaign"
    first = run_all(directory)
    reran = []
    second = run_all(directory, on_shard=lambda i, o: reran.append(o.label))
    assert reran == []  # nothing left to execute
    assert as_dicts(second) == as_dicts(first)


# ----------------------------------------------------------------------
# Supervision: a failing scenario is recorded, not fatal.
# ----------------------------------------------------------------------


def test_hung_scenario_is_recorded_as_error(tmp_path, monkeypatch):
    """A watchdog trip is the scenario's recorded error outcome, not an
    exception: the scenario runs once and the campaign carries on."""
    monkeypatch.setattr(
        "repro.core.determinism.run_scenario",
        functools.partial(run_scenario, max_cycles=100),  # a sure trip
    )
    outcomes = run_all(tmp_path / "campaign")
    assert len(outcomes) == 2
    outcome = outcomes[scenarios()[0].label]
    assert all(o.failed for o in outcomes.values())
    assert "ExecutionLimitExceeded" in outcome.error
    assert outcome.coverages == []
    assert outcome.module_coverages() == []


def test_unknown_module_is_rejected(tmp_path):
    with pytest.raises(ValueError):
        run_parallel_checkpointed_campaign(
            builders, scenarios(), MODELS, tmp_path / "c", modules=("NOPE",)
        )


# ----------------------------------------------------------------------
# Checkpoint file hygiene.
# ----------------------------------------------------------------------


def test_checkpoint_quarantines_garbage_file(tmp_path):
    """Rotted bytes are corruption, not a caller error: the file moves
    to a .corrupt sidecar with a warning and the checkpoint starts
    empty (the campaign recomputes; the evidence survives)."""
    path = tmp_path / "c.json"
    path.write_text("not json {")
    with pytest.warns(CheckpointCorruptionWarning, match="unreadable"):
        checkpoint = CampaignCheckpoint(path, ("FWD",))
    assert checkpoint.outcomes == {}
    sidecar = tmp_path / "c.json.corrupt"
    assert sidecar.read_text() == "not json {"
    assert not path.exists()


def test_checkpoint_rejects_version_mismatch(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"version": 999, "modules": ["FWD"], "scenarios": []}))
    with pytest.raises(CheckpointError):
        CampaignCheckpoint(path, ("FWD",))


def test_checkpoint_refuses_to_mix_module_sets(tmp_path):
    path = tmp_path / "c.json"
    checkpoint = CampaignCheckpoint(path, ("FWD",))
    checkpoint.record(ScenarioOutcome(label="s1", coverages=[]))
    with pytest.raises(CheckpointError):
        CampaignCheckpoint(path, ("FWD", "ICU"))


def test_checkpoint_save_is_atomic(tmp_path):
    path = tmp_path / "c.json"
    checkpoint = CampaignCheckpoint(path, ("FWD",))
    checkpoint.record(ScenarioOutcome(label="s1"))
    # No staging file survives the commit, whatever its pid suffix.
    assert not list(tmp_path.glob("*.tmp*"))
    reloaded = CampaignCheckpoint(path, ("FWD",))
    assert reloaded.done("s1") and not reloaded.done("s2")


def test_outcome_ignores_the_retired_audit_key():
    """Checkpoints written while outcomes carried an ``audit`` field
    still load; the key is dropped."""
    entry = {**ScenarioOutcome(label="s1").to_dict(), "audit": None}
    outcome = ScenarioOutcome.from_dict(entry)
    assert outcome.label == "s1"
    assert "audit" not in outcome.to_dict()
