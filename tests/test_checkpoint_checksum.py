"""Checkpoint integrity: content digests and corruption recovery.

The campaign checkpoint (``campaign.json``) embeds a blake2b content
digest over its canonical JSON.  These tests pin the whole corruption
story: truncated, garbage, valid-JSON-but-tampered files, valid JSON
that is not an object and a payload without a digest are detected,
quarantined to a ``.corrupt`` sidecar with a
:class:`~repro.errors.CheckpointCorruptionWarning` (bytes preserved,
never silently deleted), and the campaign grades every scenario again,
to outcomes bit-identical to an undisturbed run.  Incompatibility
(version / module mismatch) still raises — rot restarts, caller errors
do not.
"""

import json

import pytest

from repro.core.determinism import Scenario
from repro.errors import CheckpointCorruptionWarning, CheckpointError
from repro.faults import (
    CampaignCheckpoint,
    ScenarioOutcome,
    corrupt_file,
    run_parallel_checkpointed_campaign,
)
from repro.faults.campaign import (
    CHECKPOINT_VERSION,
    CORRUPT_SUFFIX,
    content_digest,
    verify_payload,
)
from repro.faults.orchestrator import CHECKPOINT_NAME
from repro.faults.workload import DEFAULT_CAMPAIGN_MODELS, small_provider
from repro.soc import CodeAlignment, CodePosition

SCENARIOS = (
    Scenario((0, 1), CodePosition.LOW, CodeAlignment.QWORD),
    Scenario((0, 1), CodePosition.MID, CodeAlignment.WORD),
)

#: Valid JSON documents that are not a campaign payload (an object).
NON_OBJECT_PAYLOADS = {"list": "[]", "number": "3", "null": "null"}

CORRUPTION_MODES = ("truncate", "garbage", "tamper", *NON_OBJECT_PAYLOADS)


def corrupt(path, mode):
    if mode in NON_OBJECT_PAYLOADS:
        path.write_text(NON_OBJECT_PAYLOADS[mode])
    else:
        corrupt_file(path, mode)


def run_small(directory, **kwargs):
    kwargs.setdefault("modules", ("FWD",))
    kwargs.setdefault("workers", 1)
    return run_parallel_checkpointed_campaign(
        small_provider(), SCENARIOS, DEFAULT_CAMPAIGN_MODELS, directory,
        **kwargs,
    )


def outcome_dicts(result):
    return {label: o.to_dict() for label, o in result.outcomes.items()}


# ----------------------------------------------------------------------
# The digest itself.
# ----------------------------------------------------------------------


def test_content_digest_ignores_embedded_digest_field():
    data = {"a": 1, "b": [2, 3]}
    digest = content_digest(data)
    assert content_digest({**data, "digest": digest}) == digest
    assert content_digest({**data, "digest": "junk"}) == digest


def test_content_digest_is_key_order_independent():
    assert content_digest({"a": 1, "b": 2}) == content_digest({"b": 2, "a": 1})


def test_content_digest_detects_value_changes():
    assert content_digest({"a": 1}) != content_digest({"a": 2})


def test_checkpoint_without_digest_is_quarantined(tmp_path):
    # Every checkpoint is written with a digest, so a file without one
    # is rot, not an old format: quarantined, never half-parsed.
    path = tmp_path / "checkpoint.json"
    text = '{"version":1,"modules":["FWD"],"scenarios":[{"label":"x"}]}'
    path.write_text(text)
    with pytest.warns(CheckpointCorruptionWarning, match="no content digest"):
        checkpoint = CampaignCheckpoint(path, ("FWD",))
    assert checkpoint.outcomes == {}
    assert not path.exists()
    assert (tmp_path / ("checkpoint.json" + CORRUPT_SUFFIX)).read_text() == text


def test_repeated_corruption_keeps_every_sidecar(tmp_path):
    # A second corruption must not overwrite the first one's evidence:
    # each lands in the first free sidecar name, which the warning names.
    path = tmp_path / "checkpoint.json"
    corruptions = (
        ('{"version":1,"modules":["FWD"],"scenarios":[]}', "checkpoint.json.corrupt"),
        ("not json {", "checkpoint.json.corrupt.1"),
    )
    for text, sidecar in corruptions:
        path.write_text(text)
        with pytest.warns(CheckpointCorruptionWarning, match=sidecar):
            CampaignCheckpoint(path, ("FWD",))
        assert not path.exists()
    for text, sidecar in corruptions:
        assert (tmp_path / sidecar).read_text() == text


def test_verify_payload_reports_mismatch(tmp_path):
    reason = verify_payload(tmp_path / "x.json", {"a": 1, "digest": "0" * 32})
    assert reason is not None and "digest mismatch" in reason


# ----------------------------------------------------------------------
# The checkpoint: every corruption mode quarantines and recomputes.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("mode", CORRUPTION_MODES)
def test_corrupt_shard_checkpoint_recovers_bit_identical(tmp_path, mode):
    reference = run_small(tmp_path / "reference")

    directory = tmp_path / "campaign"
    run_small(directory)
    target = directory / CHECKPOINT_NAME
    original = target.read_bytes()
    corrupt(target, mode)
    assert target.read_bytes() != original

    with pytest.warns(CheckpointCorruptionWarning):
        resumed = run_small(directory)
    sidecar = directory / (target.name + CORRUPT_SUFFIX)
    assert sidecar.exists()  # evidence preserved for post-mortem
    # The whole campaign was graded again.
    assert resumed.scheduled == tuple(range(len(SCENARIOS)))
    assert outcome_dicts(resumed) == outcome_dicts(reference)
    # The recomputed file is valid again: a third run is pure reads.
    third = run_small(directory)
    assert third.scheduled == ()
    assert outcome_dicts(third) == outcome_dicts(reference)


def test_tamper_is_caught_only_by_the_digest(tmp_path):
    """The nastiest mode stays valid JSON — json.loads alone would
    accept it; the embedded digest is what catches it."""
    directory = tmp_path / "campaign"
    run_small(directory)
    target = directory / CHECKPOINT_NAME
    corrupt_file(target, "tamper")
    data = json.loads(target.read_text())  # parses fine
    assert verify_payload(target, data) is not None


# ----------------------------------------------------------------------
# Rot restarts; incompatibility still raises.
# ----------------------------------------------------------------------


def test_version_mismatch_still_raises(tmp_path):
    path = tmp_path / "checkpoint.json"
    data = {"version": CHECKPOINT_VERSION + 1, "modules": ["FWD"], "scenarios": []}
    data["digest"] = content_digest(data)
    path.write_text(json.dumps(data))
    with pytest.raises(CheckpointError, match="version"):
        CampaignCheckpoint(path, ("FWD",))


def test_module_mismatch_still_raises(tmp_path):
    path = tmp_path / "checkpoint.json"
    checkpoint = CampaignCheckpoint(path, ("FWD",))
    checkpoint.record(ScenarioOutcome(label="s", coverages=[]))
    with pytest.raises(CheckpointError, match="refusing to mix"):
        CampaignCheckpoint(path, ("ICU",))


def test_saved_checkpoint_round_trips_with_digest(tmp_path):
    path = tmp_path / "checkpoint.json"
    checkpoint = CampaignCheckpoint(path, ("FWD",))
    checkpoint.record(ScenarioOutcome(label="s", coverages=[]))
    data = json.loads(path.read_text())
    assert data["digest"] == content_digest(data)
    # Clean reload: no warning, outcome intact.
    reloaded = CampaignCheckpoint(path, ("FWD",))
    assert set(reloaded.outcomes) == {"s"}
