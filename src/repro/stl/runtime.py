"""Run-time self-test execution (the paper's second STL category).

Section I distinguishes *boot-time* tests (the paper's subject: they
need an exact, uninterruptible stream) from *run-time* tests, which
"can be executed in parallel, usually during the processor idle times",
coexisting with the application.  This module provides that mode: an
application main loop with periodic idle windows, each hosting one
self-test routine execution.

Run-time routines must be timing-insensitive by construction (no
performance counters, no imprecise-interrupt reads), so their signature
depends only on architectural values and survives bus contention — the
reason the paper needs no special machinery for them.  The application
keeps its own state in memory across windows (the routines clobber the
body registers, exactly like a context switch would).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.program import Program
from repro.stl.conventions import (
    DATA_PTR,
    RESULT_FAIL,
    RESULT_PASS,
    SIG_REG,
    WRAP_TMP,
)
from repro.stl.packets import PhasedBuilder
from repro.stl.routine import RoutineContext, TestRoutine
from repro.utils.bitops import MASK32, rotl32

#: DTCM offsets used by a run-time session (per core).
VERDICT_OFFSET = 0  # RESULT_PASS unless any window's check failed
APP_STATE_OFFSET = 8  # the application's accumulator
APP_RESULT_OFFSET = 12  # final application checksum
#: Initial value of the application's accumulator.
APP_SEED = 0x0BAD_F00D


@dataclass(frozen=True)
class RuntimeSession:
    """A built run-time test session for one core."""

    program: Program
    rounds: int
    routine_names: tuple[str, ...]
    expected_app_checksum: int

    @property
    def entry_point(self) -> int:
        return self.program.base_address


def expected_app_checksum(rounds: int) -> int:
    """Python model of the application's computation."""
    value = APP_SEED
    for round_index in range(rounds):
        value = (rotl32(value, 3) + ((round_index * 0x9E37) & MASK32)) & MASK32
    return value


def build_runtime_session(
    routines: list[tuple[TestRoutine, int]],
    rounds: int,
    base_address: int,
    ctx: RoutineContext,
) -> RuntimeSession:
    """Interleave an application with run-time self-tests.

    ``routines`` pairs each routine with its expected signature (derived
    from a golden run; timing-insensitive routines have one golden value
    regardless of contention).  Each of the ``rounds`` application
    iterations performs one compute step, then executes the next routine
    of the rotation in its idle window and checks the signature.  Any
    mismatch latches RESULT_FAIL into the core's verdict mailbox.
    """
    if not routines:
        raise ValueError("a run-time session needs at least one routine")
    for routine, _ in routines:
        if routine.uses_pcs:
            raise ValueError(
                f"{routine.name} folds performance counters into its "
                "signature; it is not timing-insensitive and cannot run "
                "as a run-time test (deploy it boot-time, cache-wrapped)"
            )
    asm = PhasedBuilder(base_address, f"runtime_core{ctx.core_index}")
    mailbox = ctx.mailbox_address
    # Initialise the verdict and the application state.
    asm.li(WRAP_TMP, RESULT_PASS)
    asm.li(DATA_PTR, mailbox)
    asm.sw(WRAP_TMP, VERDICT_OFFSET, DATA_PTR)
    asm.li(WRAP_TMP, APP_SEED)
    asm.sw(WRAP_TMP, APP_STATE_OFFSET, DATA_PTR)
    for round_index in range(rounds):
        # Application compute phase: state lives in the D-TCM across
        # the idle window (the routine clobbers the register file).
        asm.li(DATA_PTR, mailbox)
        asm.lw(1, APP_STATE_OFFSET, DATA_PTR)
        asm.slli(2, 1, 3)
        asm.srli(3, 1, 29)
        asm.or_(1, 2, 3)
        asm.li(4, (round_index * 0x9E37) & MASK32)
        asm.add(1, 1, 4)
        asm.sw(1, APP_STATE_OFFSET, DATA_PTR)
        # Idle window: one run-time self-test execution.
        routine, expected = routines[round_index % len(routines)]
        routine.emit_windowed(asm, ctx)
        ok = f"__rt_ok_{round_index}"
        asm.li(WRAP_TMP, expected)
        asm.beq(SIG_REG, WRAP_TMP, ok)
        asm.li(WRAP_TMP, RESULT_FAIL)
        asm.li(DATA_PTR, mailbox)
        asm.sw(WRAP_TMP, VERDICT_OFFSET, DATA_PTR)
        asm.label(ok)
    # Publish the application checksum and stop.
    asm.li(DATA_PTR, mailbox)
    asm.lw(1, APP_STATE_OFFSET, DATA_PTR)
    asm.sw(1, APP_RESULT_OFFSET, DATA_PTR)
    asm.halt()
    return RuntimeSession(
        program=asm.build(),
        rounds=rounds,
        routine_names=tuple(routine.name for routine, _ in routines),
        expected_app_checksum=expected_app_checksum(rounds),
    )


def session_verdict(
    core, session: "RuntimeSession | int"
) -> tuple[bool, bool]:
    """(all self-tests passed, application checksum correct).

    ``session`` is the :class:`RuntimeSession` the core ran (or, for
    callers that derived it themselves, the expected application
    checksum as an int); the raw published checksum is available via
    :func:`session_checksum` when the actual value is wanted.
    """
    expected = (
        session.expected_app_checksum
        if isinstance(session, RuntimeSession)
        else session
    )
    mailbox = core.dtcm.base
    verdict = core.dtcm.read_word(mailbox + VERDICT_OFFSET)
    checksum = core.dtcm.read_word(mailbox + APP_RESULT_OFFSET)
    return verdict == RESULT_PASS, checksum == expected


def session_checksum(core) -> int:
    """The raw application checksum the core published."""
    return core.dtcm.read_word(core.dtcm.base + APP_RESULT_OFFSET)
