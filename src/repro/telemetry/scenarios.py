"""Canned, self-contained telemetry scenarios for ``python -m repro trace``.

Each scenario builds a SoC, attaches a :class:`TelemetrySession`, runs a
short story worth tracing and returns the live session plus its verdict:

* ``quickstart`` — the paper's headline: all three cores run their
  cache-wrapped forwarding routine in parallel; the determinism auditor
  proves every execution loop stayed off the shared bus.
* ``contention`` — a post-mortem: core 0 runs the *unwrapped* ablation
  (no loading loop, cold caches inside the test window) next to a
  properly wrapped core 1.  The auditor fails core 0 and the trace shows
  exactly which transactions violated the window.
* ``recovery`` — a seeded soft error corrupts a warm D-cache line right
  at loading-to-execution handover; the supervisor's retry re-warms the
  caches and the trace carries injection + retry + verdict end to end.

This module deliberately lives outside ``repro.telemetry``'s package
``__init__``: it builds programs and SoCs, and the telemetry package
itself must stay importable from inside the memory/CPU models.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cache_wrapper import CacheWrapperOptions, cache_wrapped_builder
from repro.core.golden import finalise_with_expected
from repro.faults.soft_errors import ExecutionEntryCorruption, SoftErrorInjector
from repro.faults.workload import DEFAULT_CAMPAIGN_MODELS as MODELS
from repro.soc.loader import CodeAlignment, CodePosition, placement_address
from repro.soc.soc import Soc
from repro.soc.supervisor import RoutineSpec, TestSupervisor
from repro.stl.conventions import DATA_PTR
from repro.stl.routine import RoutineContext, TestRoutine
from repro.stl.routines.forwarding import make_forwarding_routine
from repro.stl.signature import emit_signature_update
from repro.telemetry.session import TelemetrySession

#: Seed for the recovery scenario's injector (reproducible trace).
RECOVERY_SEED = 2024


@dataclass
class TraceRun:
    """One traced scenario: the machine, its session and the outcome."""

    name: str
    soc: Soc
    session: TelemetrySession
    cycles: int
    #: Scenario-specific story line printed above the reports.
    narrative: str = ""
    #: What the scenario *expects* from the auditor (used by --strict
    #: and the tests: a failed audit is the contention scenario's point).
    expect_audit_pass: bool = True
    #: Structured RecoveryReport (recovery scenario only).
    report: object = None

    @property
    def audit_as_expected(self) -> bool:
        return self.session.auditor.passed == self.expect_audit_pass


def _small_routine() -> TestRoutine:
    """A tiny cache-resident body: eight loads folded into the signature."""

    def emit_body(asm, ctx):
        for i in range(8):
            asm.lw(1, 4 * i, DATA_PTR)
            emit_signature_update(asm, 1)

    return TestRoutine("tiny_ld", "GEN", emit_body)


def _routine_for(model, small: bool) -> TestRoutine:
    if small:
        return _small_routine()
    return make_forwarding_routine(model, with_pcs=False)


def _finalised_builder(core_id: int, routine, options=CacheWrapperOptions()):
    """Wrapped builder with its expected signature baked in."""
    ctx = RoutineContext.for_core(core_id, MODELS[core_id])
    base = placement_address(CodePosition.LOW, CodeAlignment.QWORD, core_id)

    def build(expected):
        return cache_wrapped_builder(routine, ctx, expected, options)(base)

    program, expected = finalise_with_expected(build, core_id)
    return program, ctx


def run_quickstart(small: bool = False) -> TraceRun:
    """All three cores run cache-wrapped routines in parallel."""
    soc = Soc()
    entries = {}
    for core_id, model in MODELS.items():
        program, _ = _finalised_builder(core_id, _routine_for(model, small))
        soc.load(program)
        entries[core_id] = program.base_address
    session = TelemetrySession.attach(soc)
    for core_id, entry in sorted(entries.items()):
        soc.start_core(core_id, entry)
    cycles = soc.run()
    return TraceRun(
        name="quickstart",
        soc=soc,
        session=session,
        cycles=cycles,
        narrative=(
            "three cores, cache-wrapped routines, maximum bus contention "
            "- every execution loop must stay off the shared bus"
        ),
    )


def run_contention(small: bool = False) -> TraceRun:
    """Core 0 skips the loading loop (the ablation); core 1 is wrapped."""
    soc = Soc()
    unwrapped, _ = _finalised_builder(
        0,
        _routine_for(MODELS[0], small),
        CacheWrapperOptions(loading_loop=False),
    )
    wrapped, _ = _finalised_builder(1, _routine_for(MODELS[1], small))
    soc.load(unwrapped)
    soc.load(wrapped)
    session = TelemetrySession.attach(soc)
    soc.start_core(0, unwrapped.base_address)
    soc.start_core(1, wrapped.base_address)
    cycles = soc.run()
    return TraceRun(
        name="contention",
        soc=soc,
        session=session,
        cycles=cycles,
        narrative=(
            "core 0 enters its test window with cold caches (no loading "
            "loop): every resulting fill is a determinism violation the "
            "auditor pins to a cycle and an address"
        ),
        expect_audit_pass=False,
    )


def run_recovery(small: bool = False) -> TraceRun:
    """A between-loop cache flip, repaired by one supervised retry."""
    del small  # the recovery body is already minimal
    soc = Soc()
    # The expected signature is baked into the program's own epilogue
    # check; the supervisor reads the mailbox verdict it produces.
    program, ctx = _finalised_builder(0, _small_routine())
    soc.load(program)
    session = TelemetrySession.attach(soc)
    injector = SoftErrorInjector(seed=RECOVERY_SEED)
    session.attach_injector(injector)
    soc.fault_hooks.append(ExecutionEntryCorruption(0, injector))
    supervisor = TestSupervisor(
        soc, injector=injector, auditor=session.auditor
    )
    report = supervisor.run_session(
        [
            RoutineSpec(
                name="tiny_ld",
                core_id=0,
                entry_point=program.base_address,
                mailbox_address=ctx.mailbox_address,
            )
        ]
    )
    return TraceRun(
        name="recovery",
        soc=soc,
        session=session,
        cycles=soc.cycle,
        narrative=(
            "a seeded bit flip corrupts a warm D-cache line at the "
            "loading-to-execution handover; the supervised retry re-runs "
            "the loading loop and the routine re-converges"
        ),
        report=report,
    )


#: Scenario registry for the CLI: name -> (description, runner).
TRACE_SCENARIOS = {
    "quickstart": (
        "3 cores, cache-wrapped routines in parallel (audit passes)",
        run_quickstart,
    ),
    "contention": (
        "unwrapped core next to a wrapped one (audit fails, on purpose)",
        run_contention,
    ),
    "recovery": (
        "seeded cache corruption + supervised retry (audit passes)",
        run_recovery,
    ),
}


def run_trace_scenario(name: str, small: bool = False) -> TraceRun:
    """Run one named scenario; raises KeyError for unknown names."""
    try:
        _, runner = TRACE_SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown trace scenario {name!r}; "
            f"choose from {sorted(TRACE_SCENARIOS)}"
        ) from None
    return runner(small=small)
