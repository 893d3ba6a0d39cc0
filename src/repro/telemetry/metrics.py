"""Phase-aware metric aggregation over the telemetry event stream.

Where the raw ``BusStats``/``CacheStats`` on the models are run-lifetime
totals, the :class:`MetricsCollector` splits every counter three ways —
per core, per STL phase (idle / loading / execution, keyed off TESTWIN,
see :mod:`repro.telemetry.phases`) and per metric — which is what turns
"the execution loop must not touch the bus" from an argument into a row
of zeros you can read off a table.

The collector is a live sink subscriber: it never re-scans the event
list, so it also works with recording disabled (``keep_events=False``)
on arbitrarily long runs.  :meth:`MetricsCollector.snapshot` /
:meth:`MetricsView.delta` give interval measurements without resetting
anything — the telemetry analogue of the new ``BusStats.snapshot()``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.telemetry.events import EventKind, TelemetryEvent
from repro.telemetry.phases import PHASES, PhaseTracker
from repro.utils.tables import format_table

#: Aggregated bus metric names (report column order).
BUS_METRICS = (
    "transactions",
    "wait_cycles",
    "busy_cycles",
    "glitch_delay_cycles",
    "error_responses",
    "retries",
)

#: Aggregated per-cache metric names (report column order).
CACHE_METRICS = (
    "hits",
    "misses",
    "fills",
    "writebacks",
    "invalidations",
    "write_miss_bypasses",
    "soft_error_flips",
)

_CACHE_EVENT_METRIC = {
    EventKind.CACHE_HIT: "hits",
    EventKind.CACHE_MISS: "misses",
    EventKind.CACHE_FILL: "fills",
    EventKind.CACHE_WRITEBACK: "writebacks",
    EventKind.CACHE_INVALIDATE: "invalidations",
    EventKind.CACHE_WRITE_MISS_BYPASS: "write_miss_bypasses",
    EventKind.CACHE_SOFT_ERROR_FLIP: "soft_error_flips",
}


class MetricsView:
    """An immutable snapshot of the collector's counters.

    ``counts`` maps ``(core, phase) -> {metric: value}`` where bus
    metrics are named ``bus.<metric>`` and cache metrics
    ``<cache>.<metric>`` (cache names come from ``CacheConfig.name``).
    """

    def __init__(self, counts: dict):
        self.counts = counts

    # -- interval arithmetic -------------------------------------------

    def delta(self, since: "MetricsView") -> "MetricsView":
        """Counters accumulated strictly after ``since`` was taken."""
        result: dict = {}
        for key, metrics in self.counts.items():
            base = since.counts.get(key, {})
            diff = {
                name: value - base.get(name, 0)
                for name, value in metrics.items()
                if value - base.get(name, 0)
            }
            if diff:
                result[key] = diff
        return MetricsView(result)

    # -- lookups --------------------------------------------------------

    def get(self, core: int | None, phase: str, metric: str) -> int:
        return self.counts.get((core, phase), {}).get(metric, 0)

    def phase_total(self, phase: str, metric: str) -> int:
        """One metric summed over every core, one phase."""
        return sum(
            metrics.get(metric, 0)
            for (_, key_phase), metrics in self.counts.items()
            if key_phase == phase
        )

    def core_total(self, core: int | None, metric: str) -> int:
        """One metric summed over every phase, one core."""
        return sum(
            metrics.get(metric, 0)
            for (key_core, _), metrics in self.counts.items()
            if key_core == core
        )

    def cache_names(self) -> tuple[str, ...]:
        names = sorted(
            {
                name.split(".", 1)[0]
                for metrics in self.counts.values()
                for name in metrics
                if not name.startswith("bus.") and "." in name
            }
        )
        return tuple(names)

    def _cores(self) -> list[int | None]:
        cores = sorted(
            {core for core, _ in self.counts if core is not None}
        )
        if any(core is None for core, _ in self.counts):
            cores.append(None)
        return cores

    # -- export ---------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready nested form: core -> phase -> metric -> value."""
        nested: dict = {}
        for (core, phase), metrics in sorted(
            self.counts.items(),
            key=lambda item: (item[0][0] is None, item[0][0] or 0, item[0][1]),
        ):
            label = "unattributed" if core is None else f"core{core}"
            nested.setdefault(label, {})[phase] = dict(sorted(metrics.items()))
        return nested

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    def render(self) -> str:
        """Two text tables: bus metrics and cache metrics, phase-split."""
        bus_rows = []
        cache_rows = []
        caches = self.cache_names()
        for core in self._cores():
            who = "-" if core is None else str(core)
            for phase in PHASES:
                metrics = self.counts.get((core, phase), {})
                if not metrics:
                    continue
                if any(metrics.get(f"bus.{m}", 0) for m in BUS_METRICS):
                    bus_rows.append(
                        (who, phase)
                        + tuple(
                            f"{metrics.get(f'bus.{m}', 0):,}" for m in BUS_METRICS
                        )
                    )
                for cache in caches:
                    if any(metrics.get(f"{cache}.{m}", 0) for m in CACHE_METRICS):
                        cache_rows.append(
                            (who, phase, cache)
                            + tuple(
                                f"{metrics.get(f'{cache}.{m}', 0):,}"
                                for m in CACHE_METRICS
                            )
                        )
        sections = []
        if bus_rows:
            sections.append(
                format_table(
                    ("core", "phase") + BUS_METRICS,
                    bus_rows,
                    title="Bus activity by core and STL phase",
                )
            )
        if cache_rows:
            sections.append(
                format_table(
                    ("core", "phase", "cache") + CACHE_METRICS,
                    cache_rows,
                    title="Cache activity by core and STL phase",
                )
            )
        if not sections:
            return "(no telemetry metrics recorded)"
        return "\n\n".join(sections)


class MetricsCollector:
    """Live subscriber that aggregates events into phase-split counters."""

    def __init__(self):
        self._tracker = PhaseTracker()
        self._counts: dict = {}

    def _bump(self, core: int | None, metric: str, amount: int = 1) -> None:
        if amount == 0:
            return
        key = (core, self._tracker.phase(core))
        bucket = self._counts.get(key)
        if bucket is None:
            bucket = self._counts[key] = {}
        bucket[metric] = bucket.get(metric, 0) + amount

    def on_event(self, event: TelemetryEvent) -> None:
        kind = event.kind
        core = event.core
        fields = event.fields
        if kind is EventKind.BUS_GRANT:
            self._bump(core, "bus.transactions")
            self._bump(core, "bus.wait_cycles", fields.get("wait", 0))
            self._bump(core, "bus.glitch_delay_cycles", fields.get("glitch", 0))
        elif kind is EventKind.BUS_COMPLETE:
            self._bump(core, "bus.busy_cycles", fields.get("busy", 0))
        elif kind is EventKind.BUS_ERROR:
            self._bump(core, "bus.error_responses")
        elif kind is EventKind.BUS_RETRY:
            self._bump(core, "bus.retries")
        elif kind in _CACHE_EVENT_METRIC:
            cache = fields.get("cache", "cache")
            self._bump(core, f"{cache}.{_CACHE_EVENT_METRIC[kind]}")
        elif kind is EventKind.FAULT_INJECTION:
            self._bump(core, "faults.injections")
        elif kind is EventKind.SUPERVISOR_ATTEMPT:
            self._bump(core, "supervisor.attempts")
        elif kind is EventKind.SUPERVISOR_RETRY:
            self._bump(core, "supervisor.retries")
        elif kind is EventKind.SUPERVISOR_QUARANTINE:
            self._bump(core, "supervisor.quarantines")
        else:
            # Phase-transition events carry no counters of their own.
            self._tracker.on_event(event)

    def snapshot(self) -> MetricsView:
        """A frozen copy of the counters accumulated so far."""
        return MetricsView(
            {key: dict(metrics) for key, metrics in self._counts.items()}
        )

    # Convenience pass-throughs so a collector can be used directly
    # where a view is expected (reads see the live counters).
    def view(self) -> MetricsView:
        return MetricsView(self._counts)

    def render(self) -> str:
        return self.snapshot().render()

    def to_dict(self) -> dict:
        return self.snapshot().to_dict()
