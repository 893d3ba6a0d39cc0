"""Scenario sharding, manifest and resume primitives.

:func:`repro.faults.campaign.run_checkpointed_campaign` grades one
scenario at a time, each independently of the others — embarrassingly
parallel.  This module holds the pure pieces that let
:mod:`repro.faults.orchestrator` (the one loop that dispatches shards)
split a campaign by scenario and put it back together without changing
a single reported number:

* **One scenario per shard.**  The scenario is the campaign's only unit
  of work: :func:`plan_campaign_shards` gives every scenario its own
  shard, longest first (three-core scenarios before two-core ones, then
  by label).  The layout depends only on the scenario *set*, never on
  the caller's order, the worker count, host, or process — so any pool
  geometry reproduces the same partition.
* **Pinned campaign layout.**  A sharded campaign writes one
  :class:`~repro.faults.campaign.CampaignCheckpoint` per shard plus a
  manifest pinning the shard layout (:class:`CampaignShardPlan`), so a
  killed campaign resumes by re-scheduling only incomplete shards —
  with any worker count, not just the one it started with.  The
  manifest keeps a list of labels per shard, so a campaign directory
  written with several scenarios per shard still resumes under its own
  layout.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from repro.errors import CheckpointError, FaultModelError
from repro.faults.campaign import (
    CHECKPOINT_VERSION,
    CampaignCheckpoint,
    ScenarioOutcome,
    content_digest,
    load_payload,
    merge_outcome_maps,
    write_json_atomic,
)

__all__ = [
    "CampaignShardPlan",
    "ShardTiming",
    "plan_campaign_shards",
    "resolve_workers",
]

MANIFEST_NAME = "manifest.json"


def resolve_workers(requested: int | None) -> int:
    """Clamp a worker count to the host's CPUs (None = all of them).

    A process pool wider than ``os.cpu_count()`` cannot run faster —
    the extra processes only time-slice the same cores and add fork,
    pickle and scheduler overhead, which is how a 2-worker run on a
    single-CPU host ends up *slower* than serial.  ``python -m repro
    faultsim`` resolves its worker count through this helper so
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

    modules: tuple[str, ...]
    #: shard index -> scenario labels, in campaign order.
    labels: tuple[tuple[str, ...], ...]

    @property
    def num_shards(self) -> int:
        return len(self.labels)

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
            modules=tuple(data["modules"]),
            labels=tuple(tuple(shard) for shard in data["labels"]),
        )


def plan_campaign_shards(
    scenarios, modules: tuple[str, ...]
) -> CampaignShardPlan:
    """One shard per scenario, longest first.

    A three-core scenario simulates and grades one more core than a
    two-core one, so it goes first; ties break by label.  The order is
    a pure function of the scenario set, so re-planning after a corrupt
    manifest re-adopts the existing shard checkpoints whatever order
    the caller lists the scenarios in.
    """
    ordered = sorted(scenarios, key=lambda s: (-len(s.active_cores), s.label))
    return CampaignShardPlan(
        modules=tuple(modules),
        labels=tuple((scenario.label,) for scenario in ordered),
    )


def _prepare_campaign(
    scenarios,
    modules: tuple[str, ...],
    checkpoint_dir: str | Path,
    workers: int,
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
    directory = Path(checkpoint_dir)
    directory.mkdir(parents=True, exist_ok=True)
    manifest_path = directory / MANIFEST_NAME
    # A corrupt manifest is quarantined and re-planned: the plan is a
    # pure function of the scenario set, so it re-adopts the existing
    # shard checkpoints.
    manifest = load_payload(manifest_path, "campaign manifest")
    if manifest is None:
        plan = plan_campaign_shards(scenarios, modules)
        manifest = plan.to_dict()
        manifest["digest"] = content_digest(manifest)
        write_json_atomic(manifest_path, manifest)
    else:
        plan = CampaignShardPlan.from_dict(manifest)
        if plan.modules != tuple(modules):
            raise CheckpointError(
                f"campaign at {directory} grades modules {list(plan.modules)}, "
                f"this run grades {list(modules)}; refusing to mix them"
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
        existing = CampaignCheckpoint(
            directory / plan.checkpoint_name(index), tuple(modules)
        ).outcomes
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
