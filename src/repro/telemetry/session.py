"""Attaching telemetry to a live SoC.

One call wires a :class:`~repro.telemetry.events.RecordingSink` through
the whole machine — shared bus, each core, its private caches and its
fetch/memory units — stamps every event with the SoC clock, and stands
up the two standard live consumers (phase-aware metrics, determinism
auditor)::

    soc = Soc()
    session = TelemetrySession.attach(soc)
    ... load / start / run ...
    print(session.metrics.render())
    print(session.auditor.render())
    session.export_chrome_trace("trace.json")

Detaching restores the shared no-op null sink, so a SoC can be observed
for one interval and then run untraced again.

This module deliberately never imports the SoC/bus/cache classes: it
only assigns to the ``telemetry`` attributes the instrumented models
expose, which keeps the dependency direction ``mem/cpu/soc ->
telemetry.events`` acyclic.
"""

from __future__ import annotations

from pathlib import Path

from repro.telemetry.audit import DeterminismAuditor
from repro.telemetry.chrome_trace import export_chrome_trace
from repro.telemetry.events import NULL_SINK, EventKind, RecordingSink
from repro.telemetry.metrics import MetricsCollector

#: Recorded-stream trim applied by default: per-hit cache events are
#: counted by the metrics collector but would dominate a stored trace
#: (one per executed load plus one per fetch group on warm caches).
DEFAULT_DROP_KINDS = (EventKind.CACHE_HIT,)


class TelemetrySession:
    """A sink + its standard subscribers, attached to one SoC."""

    def __init__(self, soc, sink: RecordingSink, metrics, auditor):
        self.soc = soc
        self.sink = sink
        self.metrics = metrics
        self.auditor = auditor
        self._attached = []

    # ------------------------------------------------------------------
    # Wiring.
    # ------------------------------------------------------------------

    @classmethod
    def attach(cls, soc, keep_events: bool = True) -> "TelemetrySession":
        """Instrument ``soc`` and return the live session.

        ``keep_events=False`` keeps only the aggregated views (metrics +
        audit) — the right mode for long campaigns.  The recorded stream
        leaves out :data:`DEFAULT_DROP_KINDS` and is unbounded.
        """
        metrics = MetricsCollector()
        auditor = DeterminismAuditor()
        sink = RecordingSink(
            clock=lambda: soc.cycle,
            subscribers=(metrics, auditor),
            keep_events=keep_events,
            drop_kinds=DEFAULT_DROP_KINDS,
        )
        session = cls(soc, sink, metrics, auditor)
        session._wire(sink)
        return session

    def _wire(self, sink) -> None:
        soc = self.soc
        self._set(soc, sink)
        self._set(soc.bus, sink)
        for core in soc.cores:
            self._set(core, sink)
            self._set(core.memunit, sink)
            for cache in (core.icache, core.dcache):
                cache.telemetry_core = core.core_id
                self._set(cache, sink)

    def _set(self, component, sink) -> None:
        component.telemetry = sink
        self._attached.append(component)

    def attach_injector(self, injector) -> None:
        """Route a :class:`SoftErrorInjector`'s events into this session."""
        self._set(injector, self.sink)

    def detach(self) -> None:
        """Restore the no-op sink on every instrumented component."""
        for component in self._attached:
            component.telemetry = NULL_SINK
        self._attached = []

    # ------------------------------------------------------------------
    # Results.
    # ------------------------------------------------------------------

    @property
    def events(self):
        return self.sink.events

    def core_names(self) -> dict[int, str]:
        return {
            core.core_id: f"core {core.core_id} ({core.model.name})"
            for core in self.soc.cores
        }

    def export_chrome_trace(self, path: str | Path) -> list[dict]:
        """Write the recorded stream as Chrome trace-event JSON."""
        return export_chrome_trace(path, self.sink.events, self.core_names())

    def audit_summary(self) -> dict:
        return self.auditor.summary()
