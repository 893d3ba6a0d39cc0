"""Deterministic sharding, merging and manifest primitives.

The serial graders in :mod:`repro.faults.ppsfp` /
:mod:`repro.faults.transition` simulate one fault at a time against a
fixed pattern set, and :func:`repro.faults.campaign.run_checkpointed_campaign`
runs one scenario at a time — both embarrassingly parallel.  This module
holds the pure pieces that let :mod:`repro.faults.orchestrator` (the one
loop that dispatches shards) split that work and put it back together
without changing a single reported number:

* **Deterministic sharding.**  Faults are assigned to shards by a
  *stable* hash of their identity (:func:`stable_shard_index`, CRC-32 of
  ``str(fault)`` — never Python's salted ``hash``), scenarios by the
  same hash of their label.  The shard layout depends only on the work
  items and the shard count, never on the worker count, host, or
  process — so any pool geometry reproduces the same partition.
* **Order-independent merging.**  Shard results are combined with an
  associativity-checked reducer (:func:`reduce_results`): detection of
  each fault is independent under single-fault assumption, so per-shard
  ``detected``/``total`` counts add exactly, and the reducer verifies
  that a left fold and a balanced tree fold agree before trusting the
  sum.
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
from repro.faults.ppsfp import FaultSimResult

__all__ = [
    "CampaignShardPlan",
    "ShardTiming",
    "check_partition",
    "plan_campaign_shards",
    "reduce_results",
    "resolve_workers",
    "shard_faults",
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
    it can still pass an explicit ``workers`` to the engine functions,
    which do not clamp.
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

def fault_identity(item) -> str:
    """Stable identity string of a fault-list item.

    Accepts both plain faults and the weighted ``(fault, class_size)``
    pairs of :func:`repro.faults.stuckat.collapse_with_weights`; the
    weight is not part of the identity (it rides along with its
    representative).
    """
    fault = item[0] if isinstance(item, tuple) else item
    return str(fault)


def stable_shard_index(identity: str, num_shards: int) -> int:
    """Shard assignment by CRC-32 of the identity string.

    Deliberately *not* Python's ``hash``: that one is salted per
    process (PYTHONHASHSEED), which would scatter faults differently in
    every worker and make serial-vs-parallel equivalence meaningless.
    """
    if num_shards < 1:
        raise FaultModelError(f"num_shards must be >= 1, got {num_shards}")
    return zlib.crc32(identity.encode("utf-8")) % num_shards


def shard_faults(faults: list, num_shards: int) -> list[list]:
    """Partition a fault list into ``num_shards`` deterministic shards.

    Every fault lands in exactly one shard (stable hash of its
    identity) and keeps its original relative order inside the shard.
    Shards may be empty — a 3-fault list sharded 16 ways is legal and
    merges to the same totals.
    """
    shards: list[list] = [[] for _ in range(num_shards)]
    for item in faults:
        shards[stable_shard_index(fault_identity(item), num_shards)].append(item)
    return shards


def check_partition(faults: list, shards: list[list]) -> None:
    """Verify a shard set is a true partition of the fault list.

    Completeness (every fault present) and disjointness (no fault in
    two shards) are checked as identity multisets; a violation raises
    :class:`~repro.errors.FaultModelError` rather than silently
    over- or under-counting coverage.
    """
    want: dict[str, int] = {}
    for item in faults:
        key = fault_identity(item)
        want[key] = want.get(key, 0) + 1
    got: dict[str, int] = {}
    for shard in shards:
        for item in shard:
            key = fault_identity(item)
            got[key] = got.get(key, 0) + 1
    if want != got:
        missing = {k for k in want if want[k] > got.get(k, 0)}
        extra = {k for k in got if got[k] > want.get(k, 0)}
        raise FaultModelError(
            f"shard set is not a partition: missing={sorted(missing)[:5]} "
            f"duplicated_or_foreign={sorted(extra)[:5]}"
        )


# ----------------------------------------------------------------------
# Order-independent, associativity-checked result reduction.
# ----------------------------------------------------------------------

def reduce_results(results: list[FaultSimResult]) -> FaultSimResult:
    """Merge per-shard results into one, checking associativity.

    The merge itself is integer addition over ``total``/``detected``
    (commutative and associative by construction); the check folds the
    list both left-to-right and as a balanced tree and insists the two
    agree, so a future non-associative "merge" cannot slip in silently.
    """
    if not results:
        raise FaultModelError("reduce_results of an empty shard list")
    left = results[0]
    for result in results[1:]:
        left = left.merge(result)
    tree = _tree_reduce(results)
    if (left.total_faults, left.detected_faults) != (
        tree.total_faults,
        tree.detected_faults,
    ):
        raise FaultModelError(
            f"merge is not associative: fold={left} tree={tree}"
        )
    return left


def _tree_reduce(results: list[FaultSimResult]) -> FaultSimResult:
    level = list(results)
    while len(level) > 1:
        nxt = [
            level[i].merge(level[i + 1])
            for i in range(0, len(level) - 1, 2)
        ]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


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
    directory = Path(checkpoint_dir)
    directory.mkdir(parents=True, exist_ok=True)
    manifest_path = directory / MANIFEST_NAME
    plan = _load_manifest(manifest_path)
    if plan is None:
        plan = plan_campaign_shards(
            scenarios, modules,
            num_shards or max(1, min(len(scenarios), 4 * workers)),
        )
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
