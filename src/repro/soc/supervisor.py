"""Supervised boot-time self-test execution: watchdog, retry, quarantine.

On-line testing lives inside a safety loop: a hung or corrupted routine
must never crash the whole boot-time campaign.  The
:class:`TestSupervisor` runs each routine under a per-routine cycle
deadline (the watchdog), classifies every failure (signature mismatch,
watchdog timeout, bus error, simulator-detected corruption), performs
bounded retries — each retry re-enters the routine from its entry point,
so a cache-wrapped routine re-runs its *loading loop* and re-warms the
private caches, which is exactly why a transient soft error is repaired
by one supervised retry — and quarantines a routine after N consecutive
failures instead of raising mid-campaign.

The outcome is a structured :class:`RecoveryReport` (per-routine
attempts, failure causes, final verdicts) that serialises to JSON, so a
host-side safety monitor — or a test — can audit exactly what happened.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import BusError, ExecutionLimitExceeded, ReproError
from repro.stl.conventions import RESULT_FAIL, RESULT_PASS, SIG_REG
from repro.telemetry.events import EventKind

#: Attempt outcome labels.
PASS = "pass"
SIGNATURE_MISMATCH = "signature_mismatch"
WATCHDOG_TIMEOUT = "watchdog_timeout"
BUS_ERROR = "bus_error"
CORRUPTED_EXECUTION = "corrupted_execution"
NO_VERDICT = "no_verdict"


@dataclass(frozen=True)
class RoutineSpec:
    """One supervised routine: where it lives and how to judge it.

    The program must already be loaded into the SoC's memories; the
    supervisor only drives entry points.  ``deadline_cycles`` is the
    per-routine watchdog budget; ``expected_signature`` (when known)
    adds a host-side signature cross-check on top of the program's own
    mailbox verdict.
    """

    name: str
    core_id: int
    entry_point: int
    mailbox_address: int
    expected_signature: int | None = None
    deadline_cycles: int = 200_000


@dataclass(frozen=True)
class AttemptRecord:
    """What one supervised execution attempt of one routine did."""

    attempt: int
    outcome: str
    cycles: int
    signature: int | None = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.outcome == PASS

    def to_dict(self) -> dict:
        return {
            "attempt": self.attempt,
            "outcome": self.outcome,
            "cycles": self.cycles,
            "signature": self.signature,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AttemptRecord":
        return cls(**data)


@dataclass
class RoutineReport:
    """All attempts of one routine plus the final verdict."""

    name: str
    core_id: int
    attempts: list[AttemptRecord] = field(default_factory=list)
    quarantined: bool = False

    @property
    def passed(self) -> bool:
        return bool(self.attempts) and self.attempts[-1].passed

    @property
    def recovered(self) -> bool:
        """Passed, but only after at least one failed attempt."""
        return self.passed and len(self.attempts) > 1

    @property
    def failure_causes(self) -> list[str]:
        return [a.outcome for a in self.attempts if not a.passed]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "core_id": self.core_id,
            "quarantined": self.quarantined,
            "attempts": [a.to_dict() for a in self.attempts],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RoutineReport":
        return cls(
            name=data["name"],
            core_id=data["core_id"],
            quarantined=data["quarantined"],
            attempts=[AttemptRecord.from_dict(a) for a in data["attempts"]],
        )


@dataclass
class RecoveryReport:
    """Structured outcome of one supervised boot-time session."""

    routines: list[RoutineReport] = field(default_factory=list)
    injections: list[dict] = field(default_factory=list)
    #: Determinism-audit verdict for the session (see
    #: :class:`repro.telemetry.audit.DeterminismAuditor`), when a
    #: supervisor was given an auditor to report from.
    audit: dict | None = None

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.routines)

    @property
    def quarantined_names(self) -> list[str]:
        return [r.name for r in self.routines if r.quarantined]

    @property
    def recovered_names(self) -> list[str]:
        return [r.name for r in self.routines if r.recovered]

    @property
    def total_attempts(self) -> int:
        return sum(len(r.attempts) for r in self.routines)

    def routine(self, name: str) -> RoutineReport:
        for report in self.routines:
            if report.name == name:
                return report
        raise KeyError(f"no routine named {name!r} in the report")

    def to_dict(self) -> dict:
        return {
            "routines": [r.to_dict() for r in self.routines],
            "injections": list(self.injections),
            "audit": self.audit,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RecoveryReport":
        return cls(
            routines=[RoutineReport.from_dict(r) for r in data["routines"]],
            injections=list(data.get("injections", [])),
            audit=data.get("audit"),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "RecoveryReport":
        return cls.from_dict(json.loads(Path(path).read_text()))


class TestSupervisor:
    """Watchdog-supervised executor of boot-time routines on one SoC.

    ``max_retries`` bounds the re-entries after a failed first attempt,
    so a routine is quarantined after ``1 + max_retries`` consecutive
    failures.  Each attempt hard-resets the core at the routine's entry
    point (flushing pipeline latches and in-flight memory accesses, but
    deliberately *not* the caches: the cache-based wrapper invalidates
    and re-warms them itself, which is the paper's determinism argument
    extended to transients).
    """

    def __init__(self, soc, max_retries: int = 2, injector=None, auditor=None):
        self.soc = soc
        self.max_retries = max_retries
        #: Optional SoftErrorInjector whose log is folded into the report.
        self.injector = injector
        #: Optional DeterminismAuditor whose verdict is attached to the
        #: session's RecoveryReport (usually the one a TelemetrySession
        #: stood up).
        self.auditor = auditor

    # ------------------------------------------------------------------
    # One attempt.
    # ------------------------------------------------------------------

    def _judge(self, spec: RoutineSpec, cycles: int) -> AttemptRecord:
        core = self.soc.cores[spec.core_id]
        signature = core.regfile.read(SIG_REG)
        verdict = core.dtcm.read_word(spec.mailbox_address)
        if verdict == RESULT_PASS:
            if (
                spec.expected_signature is not None
                and signature != spec.expected_signature
            ):
                return AttemptRecord(
                    attempt=0,
                    outcome=SIGNATURE_MISMATCH,
                    cycles=cycles,
                    signature=signature,
                    detail="mailbox PASS but host signature cross-check failed",
                )
            return AttemptRecord(
                attempt=0, outcome=PASS, cycles=cycles, signature=signature
            )
        if verdict == RESULT_FAIL:
            return AttemptRecord(
                attempt=0,
                outcome=SIGNATURE_MISMATCH,
                cycles=cycles,
                signature=signature,
            )
        return AttemptRecord(
            attempt=0,
            outcome=NO_VERDICT,
            cycles=cycles,
            signature=signature,
            detail=f"mailbox holds {verdict:#010x}",
        )

    def _attempt(self, spec: RoutineSpec) -> AttemptRecord:
        core = self.soc.cores[spec.core_id]
        # Scrub the stale verdict so a previous PASS cannot leak through.
        core.dtcm.write_word(spec.mailbox_address, 0)
        core.hard_reset(spec.entry_point)
        start = self.soc.cycle
        try:
            self.soc.run(max_cycles=spec.deadline_cycles)
        except ExecutionLimitExceeded as exc:
            return AttemptRecord(
                attempt=0,
                outcome=WATCHDOG_TIMEOUT,
                cycles=self.soc.cycle - start,
                detail=str(exc),
            )
        except BusError as exc:
            return AttemptRecord(
                attempt=0,
                outcome=BUS_ERROR,
                cycles=self.soc.cycle - start,
                detail=str(exc),
            )
        except ReproError as exc:
            # A corrupted instruction stream can surface as any simulator
            # error (undecodable word, unmapped address, ...): contain it.
            return AttemptRecord(
                attempt=0,
                outcome=CORRUPTED_EXECUTION,
                cycles=self.soc.cycle - start,
                detail=f"{type(exc).__name__}: {exc}",
            )
        record = self._judge(spec, self.soc.cycle - start)
        return record

    # ------------------------------------------------------------------
    # Supervision.
    # ------------------------------------------------------------------

    def run_routine(self, spec: RoutineSpec) -> RoutineReport:
        """Run one routine with watchdog, bounded retry and quarantine."""
        report = RoutineReport(name=spec.name, core_id=spec.core_id)
        telemetry = self.soc.telemetry
        for attempt_index in range(1 + self.max_retries):
            if telemetry.enabled:
                telemetry.emit(
                    EventKind.SUPERVISOR_RETRY
                    if attempt_index
                    else EventKind.SUPERVISOR_ATTEMPT,
                    core=spec.core_id,
                    routine=spec.name,
                    attempt=attempt_index + 1,
                )
            record = self._attempt(spec)
            record = AttemptRecord(
                attempt=attempt_index + 1,
                outcome=record.outcome,
                cycles=record.cycles,
                signature=record.signature,
                detail=record.detail,
            )
            report.attempts.append(record)
            if record.passed:
                return report
        report.quarantined = True
        if telemetry.enabled:
            telemetry.emit(
                EventKind.SUPERVISOR_QUARANTINE,
                core=spec.core_id,
                routine=spec.name,
                attempts=len(report.attempts),
            )
        self._silence_core(spec)
        return report

    def _silence_core(self, spec: RoutineSpec) -> None:
        """Park a quarantined routine's core so the session can go on.

        After a watchdog trip the core may still be spinning; parking it
        (a flush into a halted state) keeps it off the bus for the rest
        of the session.
        """
        self.soc.cores[spec.core_id].park(spec.entry_point)

    def run_session(self, specs: list[RoutineSpec]) -> RecoveryReport:
        """Supervise a whole boot-time session; never raises mid-campaign.

        Routines run one at a time in the given order (the decentralised
        schedulers of the parallel session are themselves programs; the
        supervisor models the safety monitor that sequences and audits
        them).  The report records every attempt of every routine.
        """
        report = RecoveryReport()
        for spec in specs:
            report.routines.append(self.run_routine(spec))
        if self.injector is not None:
            report.injections = self.injector.log_dicts()
        if self.auditor is not None:
            report.audit = self.auditor.summary()
        return report
