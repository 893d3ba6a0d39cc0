"""The determinism auditor: proving the paper's invariant at run time.

The cache-based strategy's whole claim (Section III) is that once the
loading loop has warmed the private caches, the *execution loop* — the
window where TESTWIN bit 0 is 1 and module activations count — runs
without a single transaction on the shared bus, so no other core can
perturb its timing.  The repro could previously only assert this
indirectly (stable signatures, unchanged fill counters sampled by
tests); the :class:`DeterminismAuditor` watches the event stream and
checks the invariant directly:

    **zero bus transactions attributed to a core while that core's
    TESTWIN bit 0 is set.**

A violation records the offending event itself (cycle, transaction
kind, address, burst), so a failed audit tells you *what* touched the
bus and *when* — the actionable part a mismatched signature can't give.
Attribution uses the submit-time phase: a transaction a core initiates
inside its execution window is a violation even if arbitration grants
it later.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.telemetry.events import EventKind, TelemetryEvent
from repro.telemetry.phases import PhaseTracker

#: Bus events that mean "this core initiated shared-bus traffic".
_INITIATING_KINDS = (EventKind.BUS_SUBMIT, EventKind.BUS_RETRY)


@dataclass(frozen=True)
class AuditViolation:
    """One bus event a core initiated inside its execution window."""

    core: int
    cycle: int
    window: int
    event: TelemetryEvent

    def describe(self) -> str:
        return (
            f"core {self.core} window #{self.window}: {self.event.describe()}"
        )

    def to_dict(self) -> dict:
        return {
            "core": self.core,
            "cycle": self.cycle,
            "window": self.window,
            "event": self.event.to_dict(),
        }


class DeterminismAuditor:
    """Live subscriber that checks the execution-window bus-silence rule.

    ``windows_opened`` counts, per core, how many times the core's phase
    changed into ``execution`` (TESTWIN bit 0 went 0 -> 1): an audit that
    "passes" without ever seeing a window proves nothing, so
    :meth:`summary` reports both.
    """

    #: Cap on violations kept with full event payloads (the counters
    #: keep counting past it; a broken run can emit millions).
    MAX_RECORDED_VIOLATIONS = 256

    def __init__(self):
        self._tracker = PhaseTracker()
        self.violations: list[AuditViolation] = []
        self.violation_count = 0
        self.windows_opened: dict[int, int] = {}

    # -- event feed -----------------------------------------------------

    def on_event(self, event: TelemetryEvent) -> None:
        kind = event.kind
        if kind in _INITIATING_KINDS:
            core = event.core
            if self._tracker.in_execution_window(core):
                self.violation_count += 1
                if len(self.violations) < self.MAX_RECORDED_VIOLATIONS:
                    self.violations.append(
                        AuditViolation(
                            core=core,
                            cycle=event.cycle,
                            window=self.windows_opened.get(core, 0),
                            event=event,
                        )
                    )
            return
        core = event.core
        tracker = self._tracker
        if tracker.on_event(event) is not None and tracker.in_execution_window(core):
            self.windows_opened[core] = self.windows_opened.get(core, 0) + 1

    # -- verdict --------------------------------------------------------

    @property
    def passed(self) -> bool:
        """True when no core initiated bus traffic inside a window."""
        return self.violation_count == 0

    @property
    def audited(self) -> bool:
        """True when at least one execution window was actually opened."""
        return bool(self.windows_opened)

    def summary(self) -> dict:
        """JSON-ready audit verdict, attached to recovery/campaign reports."""
        return {
            "passed": self.passed,
            "audited": self.audited,
            "windows_opened": {
                str(core): count
                for core, count in sorted(self.windows_opened.items())
            },
            "violation_count": self.violation_count,
            "violations": [v.to_dict() for v in self.violations],
        }

    def render(self, max_lines: int = 12) -> str:
        """Human-readable verdict with the offending events."""
        if not self.audited:
            header = "DeterminismAuditor: NO WINDOWS (no core opened TESTWIN)"
        elif self.passed:
            windows = ", ".join(
                f"core {core}: {count}"
                for core, count in sorted(self.windows_opened.items())
            )
            header = (
                "DeterminismAuditor: PASS - zero execution-window bus "
                f"transactions ({windows} window(s) audited)"
            )
        else:
            header = (
                f"DeterminismAuditor: FAIL - {self.violation_count} bus "
                "transaction(s) initiated inside an execution window"
            )
        lines = [header]
        for violation in self.violations[:max_lines]:
            lines.append("  " + violation.describe())
        hidden = self.violation_count - min(
            len(self.violations), max_lines
        )
        if hidden > 0:
            lines.append(f"  ... and {hidden} more")
        return "\n".join(lines)
