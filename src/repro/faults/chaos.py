"""Deterministic chaos injection for the campaign orchestrator.

The orchestrator's contract (``repro.faults.orchestrator``) is proved
differentially: a campaign run under injected infrastructure failures
must produce results bit-identical to a clean run whenever no shard
ends quarantined.  This module is the failure injector — a picklable
:class:`ChaosPolicy` that rides into worker processes inside the shard
spec and misbehaves *deterministically*:

* the decision to fail is a pure function of (shard index, attempt
  number) — no wall clock, no RNG — so a chaos run is reproducible;
* ``kill`` terminates the worker process abruptly (``os._exit``), the
  way an OOM kill or a segfaulting native extension would, breaking the
  whole :class:`~concurrent.futures.ProcessPoolExecutor`;
* ``hang`` sleeps through the shard deadline, exercising straggler
  detection and re-dispatch;
* ``transient`` raises :class:`ChaosError` — an infrastructure-style
  failure that is deliberately *not* a :class:`~repro.errors.ReproError`
  so it escapes scenario grading inside a shard and hits the
  orchestrator;
* a *poison* shard is any directive with ``failures=None``: it fails on
  every attempt and can only end quarantined.

File-corruption helpers (:func:`corrupt_file`) complete the harness:
truncated, garbage and valid-JSON-but-tampered checkpoint bytes are the
inputs the checksum layer in :mod:`repro.faults.campaign` must catch.

Everything here is inert unless a policy is explicitly passed in —
production campaigns never import a code path that can fire.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import FaultModelError

__all__ = [
    "ChaosError",
    "ChaosPolicy",
    "ShardChaos",
    "corrupt_file",
]

#: Distinctive exit status for chaos-killed workers (grep-able in CI logs).
KILL_EXIT_CODE = 113

CHAOS_KINDS = ("transient", "kill", "hang")


class ChaosError(RuntimeError):
    """An injected infrastructure failure.

    Subclasses :class:`RuntimeError`, *not* :class:`ReproError`:
    scenario grading inside a shard records ``ReproError`` as the
    scenario's outcome and would neutralise the injection before the
    orchestrator ever saw it.  A chaos failure models the layer below —
    a dying container, a corrupted interpreter — which no in-shard
    handler should catch.
    """


@dataclass(frozen=True)
class ShardChaos:
    """One shard's misbehaviour directive.

    ``failures`` is the number of leading attempts that fail; attempt
    numbers above it succeed, and ``None`` means *every* attempt fails
    (a poison shard).  ``hang_seconds`` bounds a ``hang`` so an
    un-reaped worker cannot outlive the test session.
    """

    kind: str = "transient"
    failures: int | None = 1
    hang_seconds: float = 30.0

    def __post_init__(self):
        if self.kind not in CHAOS_KINDS:
            raise FaultModelError(
                f"unknown chaos kind {self.kind!r} (choices: {CHAOS_KINDS})"
            )
        if self.failures is not None and self.failures < 0:
            raise FaultModelError(
                f"chaos failures must be >= 0 or None, got {self.failures}"
            )

    def fires_on(self, attempt: int) -> bool:
        """Deterministic fail/pass decision for one attempt (1-based)."""
        return self.failures is None or attempt <= self.failures


@dataclass(frozen=True)
class ChaosPolicy:
    """Shard index -> directive.  Picklable; rides inside shard specs.

    ``fire`` is invoked *inside the worker process* at shard entry;
    the orchestrator itself never calls it, it only forwards the policy
    and the attempt number.  When the orchestrator has degraded to
    in-process serial execution it passes ``in_process=True`` and
    process-level misbehaviour (kill, hang) is downgraded to a raised
    :class:`ChaosError` — the failure is still counted and retried, but
    a chaos test can never kill or stall the host process itself.
    """

    shards: dict[int, ShardChaos] = field(default_factory=dict)

    def directive_for(self, shard_index: int) -> ShardChaos | None:
        return self.shards.get(shard_index)

    def fire(
        self, shard_index: int, attempt: int, *, in_process: bool = False
    ) -> None:
        """Misbehave at shard entry if the directive says so."""
        directive = self.directive_for(shard_index)
        if directive is None or not directive.fires_on(attempt):
            return
        if directive.kind == "kill" and not in_process:
            # Bypass every finally/atexit, exactly like SIGKILL/OOM.
            os._exit(KILL_EXIT_CODE)
        if directive.kind == "hang" and not in_process:
            # A bounded stall: long enough to blow any sane shard
            # deadline, short enough that an un-reaped worker drains
            # from the host eventually.  If nobody enforces a deadline
            # the shard then completes normally (a pure straggler).
            time.sleep(directive.hang_seconds)
            return
        # transient — and the in-process downgrade of kill/hang.
        raise ChaosError(
            f"chaos[{directive.kind}] shard {shard_index} attempt {attempt}"
        )


def corrupt_file(path: str | Path, mode: str = "truncate") -> None:
    """Corrupt a checkpoint file in place (test harness).

    ``truncate`` chops the file mid-byte-stream (a crash during a
    non-atomic write), ``garbage`` replaces it with non-JSON bytes, and
    ``tamper`` performs the nastiest variant: a digit substitution that
    keeps the file perfectly valid JSON — undetectable without the
    embedded content digest.
    """
    path = Path(path)
    data = path.read_bytes()
    if mode == "truncate":
        path.write_bytes(data[: max(1, len(data) // 2)])
    elif mode == "garbage":
        path.write_bytes(b"\x00\xffnot json {" + data[:7])
    elif mode == "tamper":
        swapped = data.replace(b"7", b"8", 1)
        if swapped == data:
            swapped = data.replace(b"0", b"9", 1)
        if swapped == data:  # pragma: no cover - digit-free JSON
            raise FaultModelError(f"nothing to tamper with in {path}")
        path.write_bytes(swapped)
    else:
        raise FaultModelError(
            f"unknown corruption mode {mode!r} "
            "(choices: truncate, garbage, tamper)"
        )
