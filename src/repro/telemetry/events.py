"""Cycle-stamped telemetry events and the sinks that collect them.

The whole observability layer hangs off one contract: every instrumented
component (bus, caches, fetch/memory units, cores, supervisor, fault
injectors) holds a ``telemetry`` attribute that is a
:class:`NullSink` by default.  The null sink's ``enabled`` flag is
False, and every emission site is guarded by it::

    telemetry = self.telemetry
    if telemetry.enabled:
        telemetry.emit(EventKind.CACHE_MISS, core=..., address=...)

so a run without telemetry pays a single attribute test per potential
event and allocates nothing — simulated cycle counts are untouched by
construction, and wall-clock overhead stays in the noise.

With telemetry attached (see :mod:`repro.telemetry.session`) the
:class:`RecordingSink` stamps each event with the SoC clock, fans it out
to live subscribers (the phase-aware metrics collector, the determinism
auditor) and optionally keeps the raw stream for export as a Chrome
trace (:mod:`repro.telemetry.chrome_trace`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class EventKind(str, enum.Enum):
    """The typed event taxonomy of the telemetry layer.

    Values are stable strings: they appear verbatim in exported traces
    and JSON metrics reports, so renaming one is a format change.
    """

    # Shared-bus lifecycle of one transaction.
    BUS_SUBMIT = "bus.submit"
    BUS_GRANT = "bus.grant"
    BUS_COMPLETE = "bus.complete"
    BUS_ERROR = "bus.error"
    BUS_RETRY = "bus.retry"
    # Core-private cache activity.
    CACHE_HIT = "cache.hit"
    CACHE_MISS = "cache.miss"
    CACHE_FILL = "cache.fill"
    CACHE_WRITEBACK = "cache.writeback"
    CACHE_INVALIDATE = "cache.invalidate"
    CACHE_WRITE_MISS_BYPASS = "cache.write_miss_bypass"
    CACHE_SOFT_ERROR_FLIP = "cache.soft_error_flip"
    # Core execution milestones.
    CORE_START = "core.start"
    CORE_HALT = "core.halt"
    CORE_TESTWIN = "core.testwin"
    # Supervised recovery (repro.soc.supervisor).
    SUPERVISOR_ATTEMPT = "supervisor.attempt"
    SUPERVISOR_RETRY = "supervisor.retry"
    SUPERVISOR_QUARANTINE = "supervisor.quarantine"
    # Seeded disturbances (repro.faults.soft_errors).
    FAULT_INJECTION = "fault.injection"


@dataclass(frozen=True, slots=True)
class TelemetryEvent:
    """One cycle-stamped event.

    ``core`` is the core the event is *attributed to* (the issuing bus
    master for bus events, the owning core for cache events); None for
    events with no per-core attribution.
    """

    cycle: int
    kind: EventKind
    core: int | None
    fields: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        # The payload is nested, not flattened: several emission sites
        # carry a ``kind`` field of their own (the bus transaction kind)
        # which must not shadow the event kind in serialised form.
        return {
            "cycle": self.cycle,
            "kind": self.kind.value,
            "core": self.core,
            "fields": dict(self.fields),
        }

    def describe(self) -> str:
        """Compact one-line rendering for reports and error messages."""
        who = "-" if self.core is None else f"core {self.core}"
        extra = " ".join(
            f"{key}={value:#x}" if key == "address" else f"{key}={value}"
            for key, value in self.fields.items()
        )
        return f"cycle {self.cycle:>8} {who}: {self.kind.value} {extra}".rstrip()


class NullSink:
    """The disabled sink: every instrumented component's default.

    ``emit`` is never called when call sites honour the ``enabled``
    guard; it is still a safe no-op for code that does not bother.
    """

    enabled = False

    def emit(
        self, event_kind: EventKind, core: int | None = None, **fields
    ) -> None:
        """Discard the event."""


#: Shared singleton — one disabled sink serves every component.
NULL_SINK = NullSink()


class RecordingSink:
    """An enabled sink: stamps, fans out and (optionally) records events.

    ``clock`` supplies the cycle stamp (bound to ``lambda: soc.cycle``
    by :func:`repro.telemetry.session.TelemetrySession.attach`).
    ``subscribers`` receive every event through ``on_event`` in emission
    order — this is how the metrics collector and the determinism
    auditor observe a run without a second pass.  ``drop_kinds`` trims
    the *recorded* stream only (e.g. per-hit cache events are counted by
    the metrics subscriber but would bloat an exported trace).
    """

    enabled = True

    def __init__(
        self,
        clock=None,
        subscribers=(),
        keep_events: bool = True,
        drop_kinds=(),
        capacity: int | None = None,
    ):
        self.clock = clock if clock is not None else (lambda: 0)
        self.subscribers = list(subscribers)
        self.keep_events = keep_events
        self.drop_kinds = frozenset(drop_kinds)
        self.capacity = capacity
        self.events: list[TelemetryEvent] = []
        #: Events emitted but not recorded (dropped kinds / over capacity).
        self.dropped = 0

    def emit(
        self, event_kind: EventKind, core: int | None = None, **fields
    ) -> None:
        # First parameter deliberately not named ``kind``: several
        # emission sites carry a ``kind=...`` payload field (e.g. the
        # bus transaction kind), which lands in ``fields``.
        event = TelemetryEvent(
            cycle=self.clock(), kind=event_kind, core=core, fields=fields
        )
        for subscriber in self.subscribers:
            subscriber.on_event(event)
        if not self.keep_events or event_kind in self.drop_kinds:
            self.dropped += 1
            return
        if self.capacity is not None and len(self.events) >= self.capacity:
            self.dropped += 1
            return
        self.events.append(event)
