"""Chrome trace-event export (loadable in Perfetto / chrome://tracing).

Maps a recorded telemetry stream onto the Trace Event Format's JSON
array form:

* one track (``tid``) per core plus one for the shared bus, all inside
  a single ``repro-soc`` process;
* every completed bus transaction becomes a duration slice (``"X"``) on
  the bus track, spanning grant -> completion, with submit/wait/burst
  details in ``args``;
* each core's loading/execution windows (the phase changes
  :class:`~repro.telemetry.phases.PhaseTracker` reports) become duration
  slices on that core's track, so the phase structure of the wrapper is
  visible at a glance;
* everything else (cache misses/fills, retries, supervisor decisions,
  fault injections, ...) becomes an instant event (``"i"``) on the
  attributed core's track.

Timestamps are simulated clock cycles reported as microseconds — at the
case-study's 180 MHz nothing physical hangs on the unit, and Perfetto's
zoom/measure tools then read directly in cycles.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.telemetry.events import EventKind, TelemetryEvent
from repro.telemetry.phases import PHASE_EVENT_KINDS, PHASE_IDLE, PhaseTracker

#: Track ids inside the single exported process.
PID = 1
BUS_TID = 0


def _core_tid(core: int) -> int:
    return core + 1


#: Kinds that never become their own trace entries (bus submits/grants
#: are folded into the completion slice; phase kinds become windows).
_FOLDED_KINDS = (
    EventKind.BUS_SUBMIT,
    EventKind.BUS_GRANT,
    *PHASE_EVENT_KINDS,
)


def chrome_trace_events(
    events: list[TelemetryEvent],
    core_names: dict[int, str] | None = None,
) -> list[dict]:
    """Convert a telemetry stream into trace-event JSON dicts."""
    trace: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": PID,
            "tid": 0,
            "args": {"name": "repro-soc"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": PID,
            "tid": BUS_TID,
            "args": {"name": "shared bus"},
        },
    ]
    cores = sorted({e.core for e in events if e.core is not None})
    for core in cores:
        label = (core_names or {}).get(core, f"core {core}")
        trace.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": PID,
                "tid": _core_tid(core),
                "args": {"name": label},
            }
        )

    last_cycle = max((e.cycle for e in events), default=0)
    tracker = PhaseTracker()
    #: Open phase window per core: (name, start_cycle).
    open_window: dict[int, tuple[str, int]] = {}

    def close_window(core: int, end_cycle: int) -> None:
        window = open_window.pop(core, None)
        if window is None:
            return
        name, start = window
        trace.append(
            {
                "name": name,
                "ph": "X",
                "ts": start,
                "dur": max(end_cycle - start, 0),
                "pid": PID,
                "tid": _core_tid(core),
                "args": {},
            }
        )

    for event in events:
        if tracker.on_event(event) is not None:
            core = event.core
            close_window(core, event.cycle)
            phase = tracker.phase(core)
            if phase != PHASE_IDLE:
                open_window[core] = (f"{phase} loop", event.cycle)
        kind = event.kind
        if kind in _FOLDED_KINDS:
            continue
        if kind in (EventKind.BUS_COMPLETE, EventKind.BUS_ERROR):
            grant = event.fields.get("grant", event.cycle)
            trace.append(
                {
                    "name": f"{event.fields.get('kind', 'txn')}"
                    f" {event.fields.get('address', 0):#010x}",
                    "ph": "X",
                    "ts": grant,
                    "dur": max(event.cycle - grant, 0),
                    "pid": PID,
                    "tid": BUS_TID,
                    "args": {
                        "core": event.core,
                        "error": kind is EventKind.BUS_ERROR,
                        **event.fields,
                    },
                }
            )
            continue
        tid = BUS_TID if event.core is None else _core_tid(event.core)
        trace.append(
            {
                "name": kind.value,
                "ph": "i",
                "ts": event.cycle,
                "pid": PID,
                "tid": tid,
                "s": "t",
                "args": dict(event.fields),
            }
        )
    for core in list(open_window):
        close_window(core, last_cycle)
    return trace


def export_chrome_trace(
    path: str | Path,
    events: list[TelemetryEvent],
    core_names: dict[int, str] | None = None,
) -> list[dict]:
    """Write ``events`` as a Chrome trace JSON file; returns the dicts."""
    trace = chrome_trace_events(events, core_names)
    Path(path).write_text(json.dumps(trace) + "\n")
    return trace


#: The subset of the Trace Event Format this exporter emits.
_VALID_PHASES = {"M", "X", "i", "B", "E", "C"}
_INSTANT_SCOPES = {"t", "p", "g"}


def validate_trace_events(trace: list[dict]) -> None:
    """Check ``trace`` against the trace-event JSON-array schema.

    Raises :class:`ValueError` naming the first offending entry.  Used
    by the test suite so a format regression fails loudly rather than
    producing a file Perfetto silently refuses.
    """
    if not isinstance(trace, list):
        raise ValueError("trace must be a JSON array of event objects")
    for index, entry in enumerate(trace):
        where = f"trace[{index}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{where}: not an object")
        phase = entry.get("ph")
        if phase not in _VALID_PHASES:
            raise ValueError(f"{where}: bad or missing ph {phase!r}")
        if not isinstance(entry.get("name"), str) or not entry["name"]:
            raise ValueError(f"{where}: bad or missing name")
        for key in ("pid", "tid"):
            if not isinstance(entry.get(key), int):
                raise ValueError(f"{where}: bad or missing {key}")
        if phase != "M":
            ts = entry.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                raise ValueError(f"{where}: bad or missing ts {ts!r}")
        if phase == "X":
            dur = entry.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"{where}: X event needs dur >= 0, got {dur!r}")
        if phase == "i" and entry.get("s") not in _INSTANT_SCOPES:
            raise ValueError(f"{where}: instant event needs s in t/p/g")
        if "args" in entry and not isinstance(entry["args"], dict):
            raise ValueError(f"{where}: args must be an object")
    try:
        json.dumps(trace)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"trace is not JSON-serialisable: {exc}") from None
