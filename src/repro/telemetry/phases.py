"""STL phase derivation from the telemetry event stream.

The paper's cache-based wrapper (Fig. 2b) encodes the phase of a
routine in the TESTWIN CSR: 0 while the *loading loop* warms the
private caches, 1 while the *execution loop* runs cache-resident.  The
telemetry layer splits every metric by that phase, per core:

* ``idle`` — the core has not started, or has halted;
* ``loading`` — the core is running with TESTWIN bit 0 clear (this also
  covers wrapper prologue/epilogue code and unwrapped routines, which
  never open a test window);
* ``execution`` — the core is running with TESTWIN bit 0 set: the
  window in which the determinism claim says the bus must stay silent.

:class:`PhaseTracker` reconstructs the per-core phase purely from
``core.start`` / ``core.testwin`` / ``core.halt`` events.  It is the one
decoder of those events: the metrics collector attributes every event
to a phase at the moment it is emitted, and the auditor and the Chrome
trace exporter open and close test windows on the phase changes it
reports.
"""

from __future__ import annotations

from repro.telemetry.events import EventKind, TelemetryEvent

PHASE_IDLE = "idle"
PHASE_LOADING = "loading"
PHASE_EXECUTION = "execution"

#: Rendering / report order.
PHASES = (PHASE_IDLE, PHASE_LOADING, PHASE_EXECUTION)

#: The core events :meth:`PhaseTracker.on_event` decodes.
PHASE_EVENT_KINDS = (
    EventKind.CORE_START,
    EventKind.CORE_TESTWIN,
    EventKind.CORE_HALT,
)


class PhaseTracker:
    """Per-core STL phase, reconstructed live from core events.

    Feed it every event (cheap no-op for non-core kinds) and ask
    :meth:`phase` for the current phase of any core; :meth:`on_event`
    reports each phase change as it happens.
    """

    def __init__(self):
        self._phase: dict[int, str] = {}

    def phase(self, core: int | None) -> str:
        """Current phase of ``core`` (``idle`` for unknown/None)."""
        if core is None:
            return PHASE_IDLE
        return self._phase.get(core, PHASE_IDLE)

    def in_execution_window(self, core: int | None) -> bool:
        return self.phase(core) == PHASE_EXECUTION

    def on_event(self, event: TelemetryEvent) -> str | None:
        """Apply ``event``; return the phase its core left, if it changed.

        This is the one decoder of ``core.start`` / ``core.testwin`` /
        ``core.halt``: a window opens on a change into ``execution`` and
        closes on a change out of it.  Other kinds return ``None``.
        """
        kind = event.kind
        if kind is EventKind.CORE_START:
            phase = (
                PHASE_EXECUTION if event.fields.get("testwin", 0) & 1
                else PHASE_LOADING
            )
        elif kind is EventKind.CORE_TESTWIN:
            phase = (
                PHASE_EXECUTION if event.fields.get("value", 0) & 1
                else PHASE_LOADING
            )
        elif kind is EventKind.CORE_HALT:
            phase = PHASE_IDLE
        else:
            return None
        left = self._phase.get(event.core, PHASE_IDLE)
        if left == phase:
            return None
        self._phase[event.core] = phase
        return left
