"""Deterministic scenario sharding, manifest and resume primitives.

:func:`repro.faults.campaign.run_checkpointed_campaign` grades one
scenario at a time, each independently of the others — embarrassingly
parallel.  This module holds the pure pieces that let
:mod:`repro.faults.orchestrator` (the one loop that dispatches shards)
split a campaign by scenario and put it back together without changing
a single reported number:

* **Deterministic sharding.**  Scenarios are assigned to shards by a
  *stable* hash of their label (:func:`stable_shard_index`, CRC-32 —
  never Python's salted ``hash``).  The shard layout depends only on
  the scenario labels and the shard count, never on the worker count,
  host, or process — so any pool geometry reproduces the same
  partition.
* **Pinned campaign layout.**  A sharded campaign writes one
  :class:`~repro.faults.campaign.CampaignCheckpoint` per shard plus a
  manifest pinning the shard layout (:class:`CampaignShardPlan`), so a
  killed campaign resumes by re-scheduling only incomplete shards —
  with any worker count, not just the one it started with.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.errors import CheckpointError, FaultModelError
from repro.faults.campaign import (
    CHECKPOINT_VERSION,
    CampaignCheckpoint,
    ScenarioOutcome,
    content_digest,
    merge_outcome_maps,
    quarantine_corrupt_file,
    verify_payload,
)

__all__ = [
    "CampaignShardPlan",
    "ShardTiming",
    "plan_campaign_shards",
    "resolve_workers",
    "stable_shard_index",
]

MANIFEST_NAME = "manifest.json"


def resolve_workers(requested: int | None) -> int:
    """Clamp a worker count to the host's CPUs (None = all of them).

    A process pool wider than ``os.cpu_count()`` cannot run faster —
    the extra processes only time-slice the same cores and add fork,
    pickle and scheduler overhead, which is how a 2-worker run on a
    single-CPU container ends up *slower* than serial.  The CLI and the
    benchmarks resolve their worker counts through this helper so
    oversubscription never happens by default; callers that really want
    it can still pass an explicit ``workers`` to
    :func:`~repro.faults.orchestrator.run_parallel_checkpointed_campaign`,
    which does not clamp.
    """
    cpus = max(1, os.cpu_count() or 1)
    if requested is None:
        return cpus
    if requested < 1:
        raise FaultModelError(f"workers must be >= 1, got {requested}")
    return min(requested, cpus)


# ----------------------------------------------------------------------
# Deterministic sharding primitives.
# ----------------------------------------------------------------------

def stable_shard_index(identity: str, num_shards: int) -> int:
    """Shard assignment by CRC-32 of the identity string.

    Deliberately *not* Python's ``hash``: that one is salted per
    process (PYTHONHASHSEED), which would scatter scenarios differently
    in every process and make a pinned shard layout meaningless.
    """
    if num_shards < 1:
        raise FaultModelError(f"num_shards must be >= 1, got {num_shards}")
    return zlib.crc32(identity.encode("utf-8")) % num_shards


@dataclass(frozen=True)
class ShardTiming:
    """Wall-clock and volume of one completed shard."""

    index: int
    items: int
    seconds: float

    @property
    def throughput(self) -> float:
        """Work items per second (0.0 for an instantaneous shard)."""
        if self.seconds <= 0.0:
            return 0.0
        return self.items / self.seconds


# ----------------------------------------------------------------------
# Sharded checkpointed coverage campaigns: layout, resume, merge.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CampaignShardPlan:
    """The pinned shard layout of one parallel campaign."""

    num_shards: int
    modules: tuple[str, ...]
    #: shard index -> scenario labels, in campaign order.
    labels: tuple[tuple[str, ...], ...]

    def checkpoint_name(self, index: int) -> str:
        return f"shard_{index:03d}.json"

    def to_dict(self) -> dict:
        return {
            "version": CHECKPOINT_VERSION,
            "modules": list(self.modules),
            "num_shards": self.num_shards,
            "labels": [list(shard) for shard in self.labels],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignShardPlan":
        return cls(
            num_shards=data["num_shards"],
            modules=tuple(data["modules"]),
            labels=tuple(tuple(shard) for shard in data["labels"]),
        )


def plan_campaign_shards(
    scenarios, modules: tuple[str, ...], num_shards: int
) -> CampaignShardPlan:
    """Assign scenarios to shards by stable hash of their labels."""
    if num_shards < 1:
        raise CheckpointError(f"num_shards must be >= 1, got {num_shards}")
    labels: list[list[str]] = [[] for _ in range(num_shards)]
    for scenario in scenarios:
        labels[stable_shard_index(scenario.label, num_shards)].append(
            scenario.label
        )
    return CampaignShardPlan(
        num_shards=num_shards,
        modules=tuple(modules),
        labels=tuple(tuple(shard) for shard in labels),
    )


def _load_manifest(path: Path) -> CampaignShardPlan | None:
    """Load + verify the shard-layout manifest.

    Corruption (unreadable bytes, bad JSON, digest mismatch) quarantines
    the file to a ``.corrupt`` sidecar with a warning and returns None —
    the campaign re-plans, and because :func:`plan_campaign_shards` is a
    pure function of (scenarios, num_shards) a re-planned layout with
    the same shard count re-adopts every existing shard checkpoint.
    Version mismatches still raise: that is an incompatibility, not rot.
    """
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text())
    # ValueError covers JSONDecodeError and the UnicodeDecodeError that
    # non-UTF-8 garbage raises before the parser even runs.
    except (OSError, ValueError) as exc:
        quarantine_corrupt_file(path, f"unreadable: {exc}")
        return None
    reason = verify_payload(path, data)
    if reason is not None:
        quarantine_corrupt_file(path, reason)
        return None
    if data.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"campaign manifest {path} has version {data.get('version')!r}, "
            f"expected {CHECKPOINT_VERSION}"
        )
    return CampaignShardPlan.from_dict(data)


def _save_manifest(path: Path, plan: CampaignShardPlan) -> None:
    data = plan.to_dict()
    data["digest"] = content_digest(data)
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    tmp.write_text(json.dumps(data, indent=2) + "\n")
    os.replace(tmp, path)


def _prepare_campaign(
    scenarios,
    modules: tuple[str, ...],
    checkpoint_dir: str | Path,
    workers: int,
    num_shards: int | None,
):
    """Validate, pin/load the manifest, and scan shard checkpoints.

    Returns ``(directory, plan, labels, shard_scenarios, completed,
    scheduled)`` where ``completed`` maps already-finished shard indices
    to their outcome maps and ``scheduled`` lists the shard indices
    still owing work.
    """
    scenarios = tuple(scenarios)
    labels = [scenario.label for scenario in scenarios]
    if len(set(labels)) != len(labels):
        raise CheckpointError("duplicate scenario labels in campaign")
    if workers < 1:
        raise CheckpointError(f"workers must be >= 1, got {workers}")
    if num_shards is not None and num_shards < 1:
        raise CheckpointError(f"num_shards must be >= 1, got {num_shards}")
    directory = Path(checkpoint_dir)
    directory.mkdir(parents=True, exist_ok=True)
    manifest_path = directory / MANIFEST_NAME
    plan = _load_manifest(manifest_path)
    if plan is None:
        if num_shards is None:
            num_shards = max(1, min(len(scenarios), 4 * workers))
        plan = plan_campaign_shards(scenarios, modules, num_shards)
        _save_manifest(manifest_path, plan)
    else:
        if plan.modules != tuple(modules):
            raise CheckpointError(
                f"campaign at {directory} grades modules {list(plan.modules)}, "
                f"this run grades {list(modules)}; refusing to mix them"
            )
        if num_shards is not None and num_shards != plan.num_shards:
            raise CheckpointError(
                f"campaign at {directory} is sharded {plan.num_shards} ways; "
                f"cannot resume with num_shards={num_shards}"
            )
        manifest_labels = sorted(
            label for shard in plan.labels for label in shard
        )
        if manifest_labels != sorted(labels):
            raise CheckpointError(
                f"campaign at {directory} covers a different scenario set; "
                "refusing to resume"
            )
    by_label = {scenario.label: scenario for scenario in scenarios}
    shard_scenarios = [
        tuple(by_label[label] for label in shard_labels)
        for shard_labels in plan.labels
    ]

    # Resume: a shard is complete when its checkpoint holds every label.
    completed: dict[int, dict[str, ScenarioOutcome]] = {}
    scheduled: list[int] = []
    for index, shard_labels in enumerate(plan.labels):
        path = directory / plan.checkpoint_name(index)
        existing = (
            CampaignCheckpoint(path, tuple(modules)).outcomes
            if path.exists()
            else {}
        )
        if shard_labels and all(label in existing for label in shard_labels):
            completed[index] = {
                label: existing[label] for label in shard_labels
            }
        elif shard_labels:
            scheduled.append(index)
        else:
            completed[index] = {}
    return directory, plan, labels, shard_scenarios, completed, scheduled


def _merge_campaign_outcomes(
    labels, completed, *, missing_ok=()
) -> dict[str, ScenarioOutcome]:
    """Merge per-shard outcome maps into caller scenario order.

    ``missing_ok`` names labels allowed to be absent (the quarantined
    shards of a partial supervised campaign); any other gap is a bug
    and raises.
    """
    merged = merge_outcome_maps(completed.values())
    allowed = set(missing_ok)
    missing = [
        label for label in labels
        if label not in merged and label not in allowed
    ]
    if missing:
        raise CheckpointError(
            f"campaign finished with unaccounted scenarios {missing[:5]}"
        )
    return {label: merged[label] for label in labels if label in merged}
