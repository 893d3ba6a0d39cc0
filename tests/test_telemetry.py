"""The telemetry layer: sinks, phases, metrics, auditor, exporters.

Unit tests use hand-built event streams; the integration tests attach a
:class:`TelemetrySession` to a real SoC running cache-wrapped routines
and check the paper's invariant end to end — including that attaching
telemetry never changes what the machine computes.
"""

import json

import pytest

from repro.core.cache_wrapper import (
    CacheWrapperOptions,
    build_cache_wrapped,
)
from repro.core.determinism import Scenario, run_scenario
from repro.core.golden import finalise_with_expected
from repro.cpu.core import CORE_MODEL_A
from repro.mem.bus import BusStats
from repro.mem.cache import CacheStats
from repro.soc.loader import CodeAlignment, CodePosition
from repro.soc.soc import Soc
from repro.stl.conventions import DATA_PTR, RESULT_PASS, SIG_REG
from repro.stl.routine import RoutineContext
from repro.stl.routine import TestRoutine as Routine
from repro.stl.signature import emit_signature_update
from repro.telemetry import (
    NULL_SINK,
    PHASE_EXECUTION,
    PHASE_IDLE,
    PHASE_LOADING,
    DeterminismAuditor,
    EventKind,
    MetricsCollector,
    NullSink,
    PhaseTracker,
    RecordingSink,
    TelemetryEvent,
    TelemetrySession,
    chrome_trace_events,
    validate_trace_events,
)

CTX = RoutineContext.for_core(0, CORE_MODEL_A)
ENTRY = 0x1000


def tiny_routine() -> Routine:
    def emit_body(asm, ctx):
        for i in range(8):
            asm.lw(1, 4 * i, DATA_PTR)
            emit_signature_update(asm, 1)

    return Routine("tiny_ld", "GEN", emit_body)


def wrapped_program(options=CacheWrapperOptions()):
    def build(expected):
        return build_cache_wrapped(tiny_routine(), ENTRY, CTX, expected, options)

    program, _ = finalise_with_expected(build, 0)
    return program


# ---------------------------------------------------------------------------
# Sinks.
# ---------------------------------------------------------------------------


def test_null_sink_is_disabled_and_inert():
    assert NULL_SINK.enabled is False
    assert isinstance(NULL_SINK, NullSink)
    # Safe no-op even for callers that skip the enabled guard, including
    # payloads that carry their own "kind" field.
    NULL_SINK.emit(EventKind.BUS_SUBMIT, core=1, kind="ifetch", address=0)


def test_recording_sink_stamps_with_clock_and_fans_out():
    now = {"cycle": 41}
    seen = []

    class Probe:
        def on_event(self, event):
            seen.append(event)

    sink = RecordingSink(clock=lambda: now["cycle"], subscribers=(Probe(),))
    assert sink.enabled is True
    sink.emit(EventKind.CACHE_MISS, core=2, cache="icache", address=0x40)
    now["cycle"] = 99
    sink.emit(EventKind.BUS_SUBMIT, core=2, kind="ifetch", address=0x40)
    assert [e.cycle for e in sink.events] == [41, 99]
    assert sink.events[0].kind is EventKind.CACHE_MISS
    assert sink.events[0].core == 2
    # The transaction kind lands in the payload, not on the event kind.
    assert sink.events[1].kind is EventKind.BUS_SUBMIT
    assert sink.events[1].fields["kind"] == "ifetch"
    # Subscribers saw both events, in order.
    assert seen == sink.events


def test_recording_sink_drop_kinds_counted_but_subscribers_still_fed():
    seen = []

    class Probe:
        def on_event(self, event):
            seen.append(event.kind)

    sink = RecordingSink(
        subscribers=(Probe(),), drop_kinds=(EventKind.CACHE_HIT,)
    )
    sink.emit(EventKind.CACHE_HIT, core=0, cache="icache", address=0)
    sink.emit(EventKind.CACHE_MISS, core=0, cache="icache", address=0)
    assert [e.kind for e in sink.events] == [EventKind.CACHE_MISS]
    assert sink.dropped == 1
    assert seen == [EventKind.CACHE_HIT, EventKind.CACHE_MISS]


def test_recording_sink_capacity_bound():
    sink = RecordingSink(capacity=2)
    for i in range(5):
        sink.emit(EventKind.CACHE_FILL, core=0, address=32 * i)
    assert len(sink.events) == 2
    assert sink.dropped == 3


def test_event_to_dict_and_describe():
    event = TelemetryEvent(
        cycle=7, kind=EventKind.BUS_SUBMIT, core=1,
        fields={"kind": "ifetch", "address": 0x1E0},
    )
    data = event.to_dict()
    assert data["cycle"] == 7 and data["core"] == 1
    # The payload nests under "fields" so its own "kind" (the bus
    # transaction kind) cannot shadow the event kind.
    assert data["kind"] == "bus.submit"
    assert data["fields"] == {"kind": "ifetch", "address": 0x1E0}
    text = event.describe()
    assert "cycle" in text and "core 1" in text
    assert "address=0x1e0" in text  # addresses render in hex


# ---------------------------------------------------------------------------
# Phases.
# ---------------------------------------------------------------------------


def _core_event(event_kind, core=0, **fields):
    return TelemetryEvent(cycle=0, kind=event_kind, core=core, fields=fields)


def test_phase_tracker_follows_testwin():
    tracker = PhaseTracker()
    assert tracker.phase(0) == PHASE_IDLE
    tracker.on_event(_core_event(EventKind.CORE_START, testwin=0))
    assert tracker.phase(0) == PHASE_LOADING
    tracker.on_event(_core_event(EventKind.CORE_TESTWIN, value=1, prev=0))
    assert tracker.phase(0) == PHASE_EXECUTION
    assert tracker.in_execution_window(0)
    tracker.on_event(_core_event(EventKind.CORE_TESTWIN, value=0, prev=1))
    assert tracker.phase(0) == PHASE_LOADING
    tracker.on_event(_core_event(EventKind.CORE_HALT))
    assert tracker.phase(0) == PHASE_IDLE
    # Unknown cores and unattributed events stay idle.
    assert tracker.phase(5) == PHASE_IDLE
    assert tracker.phase(None) == PHASE_IDLE


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def test_metrics_collector_phase_split_and_delta():
    collector = MetricsCollector()
    collector.on_event(_core_event(EventKind.CORE_START, testwin=0))
    collector.on_event(
        _core_event(EventKind.BUS_GRANT, kind="ifetch", wait=3, glitch=1)
    )
    collector.on_event(_core_event(EventKind.CACHE_FILL, cache="icache"))
    before = collector.snapshot()
    collector.on_event(_core_event(EventKind.CORE_TESTWIN, value=1, prev=0))
    collector.on_event(_core_event(EventKind.CACHE_HIT, cache="dcache"))
    view = collector.snapshot()
    assert view.get(0, PHASE_LOADING, "bus.transactions") == 1
    assert view.get(0, PHASE_LOADING, "bus.wait_cycles") == 3
    assert view.get(0, PHASE_LOADING, "bus.glitch_delay_cycles") == 1
    assert view.get(0, PHASE_LOADING, "icache.fills") == 1
    assert view.get(0, PHASE_EXECUTION, "dcache.hits") == 1
    assert view.cache_names() == ("dcache", "icache")
    assert view.phase_total(PHASE_LOADING, "bus.transactions") == 1
    assert view.core_total(0, "bus.transactions") == 1
    # Interval arithmetic: only the post-snapshot counters remain.
    diff = view.delta(before)
    assert diff.get(0, PHASE_EXECUTION, "dcache.hits") == 1
    assert diff.get(0, PHASE_LOADING, "bus.transactions") == 0
    # The snapshot is frozen; the live view keeps moving.
    collector.on_event(_core_event(EventKind.CACHE_HIT, cache="dcache"))
    assert before.get(0, PHASE_EXECUTION, "dcache.hits") == 0
    assert collector.view().get(0, PHASE_EXECUTION, "dcache.hits") == 2


def test_metrics_supervisor_and_fault_counters():
    collector = MetricsCollector()
    collector.on_event(_core_event(EventKind.SUPERVISOR_ATTEMPT, routine="r"))
    collector.on_event(_core_event(EventKind.SUPERVISOR_RETRY, routine="r"))
    collector.on_event(_core_event(EventKind.SUPERVISOR_QUARANTINE, attempts=3))
    collector.on_event(_core_event(EventKind.FAULT_INJECTION, kind="cache"))
    view = collector.view()
    assert view.get(0, PHASE_IDLE, "supervisor.attempts") == 1
    assert view.get(0, PHASE_IDLE, "supervisor.retries") == 1
    assert view.get(0, PHASE_IDLE, "supervisor.quarantines") == 1
    assert view.get(0, PHASE_IDLE, "faults.injections") == 1
    # Rendered and serialised forms carry the same numbers.
    assert "supervisor" not in view.render()  # bus/cache tables only
    assert view.to_dict()["core0"]["idle"]["supervisor.attempts"] == 1


# ---------------------------------------------------------------------------
# Determinism auditor.
# ---------------------------------------------------------------------------


def test_auditor_flags_only_in_window_bus_traffic():
    auditor = DeterminismAuditor()

    def submit():
        auditor.on_event(
            _core_event(EventKind.BUS_SUBMIT, kind="ifetch", address=0x100)
        )

    auditor.on_event(_core_event(EventKind.CORE_START, testwin=0))
    submit()  # loading phase: legal
    assert auditor.passed and not auditor.audited
    auditor.on_event(_core_event(EventKind.CORE_TESTWIN, value=1, prev=0))
    assert auditor.audited
    submit()  # in-window: violation
    auditor.on_event(
        _core_event(EventKind.BUS_RETRY, kind="ifetch", address=0x100)
    )  # retries count too
    auditor.on_event(_core_event(EventKind.CORE_TESTWIN, value=0, prev=1))
    submit()  # window closed: legal again
    assert not auditor.passed
    assert auditor.violation_count == 2
    assert auditor.windows_opened == {0: 1}
    assert [v.window for v in auditor.violations] == [1, 1]
    summary = auditor.summary()
    assert summary["passed"] is False
    assert summary["violation_count"] == 2
    assert summary["windows_opened"] == {"0": 1}
    assert summary["violations"][0]["event"]["fields"]["address"] == 0x100
    assert "FAIL" in auditor.render()
    # The summary is checkpoint-safe.
    json.dumps(summary)


def test_auditor_recorded_violations_are_capped():
    auditor = DeterminismAuditor()
    auditor.on_event(_core_event(EventKind.CORE_START, testwin=1))
    for _ in range(DeterminismAuditor.MAX_RECORDED_VIOLATIONS + 10):
        auditor.on_event(_core_event(EventKind.BUS_SUBMIT, kind="ifetch"))
    assert auditor.violation_count == DeterminismAuditor.MAX_RECORDED_VIOLATIONS + 10
    assert len(auditor.violations) == DeterminismAuditor.MAX_RECORDED_VIOLATIONS
    assert "more" in auditor.render()


# ---------------------------------------------------------------------------
# Model-stats snapshots (satellite: BusStats/CacheStats intervals).
# ---------------------------------------------------------------------------


def test_bus_and_cache_stats_snapshot_delta():
    bus = BusStats()
    bus.transactions, bus.wait_cycles = 5, 10
    before = bus.snapshot()
    bus.transactions, bus.wait_cycles = 9, 17
    diff = bus.delta(before)
    assert (diff.transactions, diff.wait_cycles) == (4, 7)
    # The snapshot is decoupled from the live counters.
    assert before.transactions == 5

    cache = CacheStats()
    cache.hits, cache.fills = 3, 2
    before = cache.snapshot()
    cache.hits, cache.fills, cache.write_miss_bypasses = 8, 2, 1
    diff = cache.delta(before)
    assert (diff.hits, diff.fills, diff.write_miss_bypasses) == (5, 0, 1)


# ---------------------------------------------------------------------------
# Integration: a real SoC under a session.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def traced_run():
    soc = Soc()
    soc.load(wrapped_program())
    session = TelemetrySession.attach(soc)
    soc.start_core(0, ENTRY)
    cycles = soc.run(max_cycles=2_000_000)
    return soc, session, cycles


def test_wrapped_routine_audits_clean(traced_run):
    soc, session, _ = traced_run
    assert soc.cores[0].dtcm.read_word(CTX.mailbox_address) == RESULT_PASS
    assert session.auditor.audited
    assert session.auditor.passed, session.auditor.render()
    assert session.auditor.windows_opened == {0: 1}


def test_phase_metrics_show_loading_fills_execution_silence(traced_run):
    _, session, _ = traced_run
    view = session.metrics.snapshot()
    # The loading loop fills both caches ...
    assert view.get(0, PHASE_LOADING, "icache.fills") > 0
    assert view.get(0, PHASE_LOADING, "dcache.fills") > 0
    assert view.get(0, PHASE_LOADING, "bus.transactions") > 0
    # ... and the execution window is cache-resident and bus-silent.
    for metric in ("icache.fills", "dcache.fills", "icache.misses",
                   "dcache.misses", "bus.transactions"):
        assert view.get(0, PHASE_EXECUTION, metric) == 0, metric
    assert view.get(0, PHASE_EXECUTION, "icache.hits") > 0


def test_chrome_trace_exports_and_validates(traced_run, tmp_path):
    _, session, _ = traced_run
    path = tmp_path / "trace.json"
    trace = session.export_chrome_trace(path)
    validate_trace_events(trace)
    on_disk = json.loads(path.read_text())
    assert on_disk == trace
    names = {entry["name"] for entry in trace}
    assert "loading loop" in names and "execution loop" in names
    # Completed transactions are duration slices on the bus track.
    slices = [e for e in trace if e["ph"] == "X" and e["tid"] == 0]
    assert slices and all(e["dur"] >= 0 for e in slices)
    # Submits/grants are folded into those slices, not exported raw.
    assert not any(e["name"].startswith("bus.submit") for e in trace)


def test_validate_trace_events_rejects_malformed():
    good = chrome_trace_events([])
    validate_trace_events(good)
    with pytest.raises(ValueError, match="ph"):
        validate_trace_events([{"name": "x", "pid": 1, "tid": 0}])
    with pytest.raises(ValueError, match="ts"):
        validate_trace_events(
            [{"name": "x", "ph": "i", "pid": 1, "tid": 0, "ts": -1, "s": "t"}]
        )
    with pytest.raises(ValueError, match="dur"):
        validate_trace_events(
            [{"name": "x", "ph": "X", "pid": 1, "tid": 0, "ts": 0}]
        )


def test_attach_detach_restores_null_sink():
    soc = Soc()
    session = TelemetrySession.attach(soc)
    assert soc.bus.telemetry is session.sink
    assert soc.cores[0].icache.telemetry is session.sink
    session.detach()
    for component in (soc, soc.bus, *soc.cores):
        assert component.telemetry is NULL_SINK
    assert soc.cores[0].memunit.telemetry is NULL_SINK
    assert soc.cores[0].dcache.telemetry is NULL_SINK


def test_telemetry_does_not_perturb_the_simulation():
    """Same program, with and without a session: bit-identical outcome."""
    program = wrapped_program()

    def run(instrument):
        soc = Soc()
        soc.load(program)
        session = TelemetrySession.attach(soc) if instrument else None
        soc.start_core(0, ENTRY)
        cycles = soc.run(max_cycles=2_000_000)
        core = soc.cores[0]
        return cycles, core.regfile.read(SIG_REG), core.ifstall, core.memstall

    assert run(False) == run(True)


def test_unwrapped_ablation_fails_audit_with_actionable_events():
    program = wrapped_program(CacheWrapperOptions(loading_loop=False))
    soc = Soc()
    soc.load(program)
    session = TelemetrySession.attach(soc)
    soc.start_core(0, ENTRY)
    soc.run(max_cycles=2_000_000)
    auditor = session.auditor
    assert auditor.audited and not auditor.passed
    # Violations carry the actionable payload: what, when, where.
    violation = auditor.violations[0]
    assert violation.core == 0 and violation.window == 1
    assert violation.event.kind is EventKind.BUS_SUBMIT
    assert "address" in violation.event.fields
    assert violation.event.fields["kind"] in ("ifetch", "dread", "dwrite")


# ---------------------------------------------------------------------------
# Audit verdict on scenario results.
# ---------------------------------------------------------------------------


def test_run_scenario_attaches_audit_verdict():
    builders = {
        0: lambda base: build_cache_wrapped(tiny_routine(), base, CTX)
    }
    scenario = Scenario((0,), CodePosition.LOW, CodeAlignment.QWORD)
    result = run_scenario(builders, scenario, audit=True)
    assert result.audit is not None
    assert result.audit["passed"] is True
    assert result.audit["windows_opened"] == {"0": 1}
    # Default mode stays audit-free (and telemetry-free).
    assert run_scenario(builders, scenario).audit is None
