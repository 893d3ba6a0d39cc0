"""Self-test routine abstraction.

A :class:`TestRoutine` owns a *body emitter*: the instructions that
actually excite the target module and fold observations into the
signature (blocks *b*/*c* of the paper's Fig. 2a).  The same body is
embedded, unmodified, in six program shapes:

* :meth:`TestRoutine.build_single_core` — the classic single-core STL
  program (Fig. 2a): signature init, body, signature check;
* :func:`repro.core.tcm_wrapper.build_tcm_wrapped` — the Table IV
  comparison strategy (copy the :func:`~repro.core.tcm_wrapper.build_tcm_body`
  image to the I-TCM, then execute it from there);
* :func:`repro.soc.scheduler.build_dispatch_program` and
  :func:`repro.soc.scheduler.build_dynamic_dispatch_program` — the
  static and dynamic parallel boot-time dispatchers (Table I);
* :func:`repro.stl.runtime.build_runtime_session` — run-time tests in
  an application's idle windows;
* :func:`repro.core.cache_wrapper.build_cache_wrapped` — the paper's
  proposed multi-core version (Fig. 2b): invalidate, loading loop,
  execution loop, check.

The first five are standalone: each frames the body with
:meth:`TestRoutine.emit_windowed`, which owns the test window.  The
cache wrapper drives TESTWIN from its loop counter and keeps its own
frame.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

from repro.cpu.core import CoreModel
from repro.isa.instructions import Csr
from repro.isa.program import Program
from repro.mem.memmap import dtcm_base
from repro.stl.conventions import (
    DATA_PTR,
    MAILBOX_OFFSET,
    RESULT_FAIL,
    RESULT_PASS,
    SIG_REG,
    WRAP_TMP,
    scratch_base,
)
from repro.stl.packets import PhasedBuilder
from repro.stl.signature import emit_signature_init


@dataclass(frozen=True)
class RoutineContext:
    """Build-time environment of one routine instance on one core.

    ``testwin_reg`` is the register holding the base TESTWIN value when
    the routine runs inside a loop-based wrapper (0 in the loading loop,
    1 in the execution loop); None means the routine is built standalone
    and TESTWIN is driven with constants.
    """

    core_index: int
    core_model: CoreModel
    data_base: int
    mailbox_address: int
    testwin_reg: int | None = None

    @classmethod
    def for_core(cls, core_index: int, core_model: CoreModel) -> "RoutineContext":
        """Standard placement: per-core SRAM scratch + D-TCM mailbox."""
        return cls(
            core_index=core_index,
            core_model=core_model,
            data_base=scratch_base(core_index),
            mailbox_address=dtcm_base(core_index) + MAILBOX_OFFSET,
        )

    def with_testwin_reg(self, reg: int) -> "RoutineContext":
        return replace(self, testwin_reg=reg)


def emit_testwin(asm: PhasedBuilder, ctx: RoutineContext, high: bool) -> None:
    """Drive the TESTWIN CSR's high-word-observability bit.

    Core C's forwarding routine folds the upper word of only some
    64-bit results into the 32-bit signature; around those blocks it
    raises TESTWIN bit 1 so the recorder knows the high half is
    observable (Section IV-C's signature-masking effect).
    """
    asm.align()
    if ctx.testwin_reg is None:
        asm.li(WRAP_TMP, 3 if high else 1)
    elif high:
        asm.ori(WRAP_TMP, ctx.testwin_reg, 2)
    else:
        asm.ori(WRAP_TMP, ctx.testwin_reg, 0)
    asm.csrw(Csr.TESTWIN, WRAP_TMP)
    asm.align()


class TestRoutine:
    """One self-test procedure of the Software Test Library."""

    def __init__(
        self,
        name: str,
        module: str,
        emit_body: Callable[[PhasedBuilder, RoutineContext], None],
        uses_pcs: bool = False,
        description: str = "",
    ):
        self.name = name
        #: Target module: 'FWD', 'HDCU', 'ICU' or 'GEN' (generic).
        self.module = module
        self.emit_body = emit_body
        #: Whether performance-counter deltas are folded into the
        #: signature (the full algorithm of [19] does; Table II uses the
        #: variant with PCs removed).
        self.uses_pcs = uses_pcs
        self.description = description

    def emit_windowed(self, asm: PhasedBuilder, ctx: RoutineContext) -> None:
        """Emit the body inside the standalone test window.

        Block a opens TESTWIN, seeds the signature and points DATA_PTR
        at the core's scratch area; the body (blocks b/c) follows with
        TESTWIN driven by constants; the window closes on a packet
        boundary, before any signature check.  Every standalone program
        shape frames its routines here, so the recorder's observable
        window is the same in all of them.
        """
        asm.li(WRAP_TMP, 1)
        asm.csrw(Csr.TESTWIN, WRAP_TMP)
        emit_signature_init(asm)
        asm.li(DATA_PTR, ctx.data_base)
        asm.align()
        self.emit_body(asm, replace(ctx, testwin_reg=None))
        asm.align()
        asm.li(WRAP_TMP, 0)
        asm.csrw(Csr.TESTWIN, WRAP_TMP)

    # ------------------------------------------------------------------
    # The classic single-core STL program (Fig. 2a).
    # ------------------------------------------------------------------

    def build_single_core(
        self,
        base_address: int,
        ctx: RoutineContext,
        expected_signature: int | None = None,
    ) -> Program:
        """Build the unmodified single-core test program.

        With ``expected_signature`` the program ends with the signature
        check and writes PASS/FAIL to the core's mailbox; without it the
        program just leaves the signature in SIG_REG (used for golden
        runs that *derive* the expected signature).
        """
        asm = PhasedBuilder(base_address, self.name)
        self.emit_windowed(asm, ctx)
        emit_epilogue(asm, ctx, expected_signature)
        asm.halt()
        return asm.build()

    def builder_for(
        self, ctx: RoutineContext, expected_signature: int | None = None
    ) -> Callable[[int], Program]:
        """A relocatable ``build(base_address)`` callable for the loader."""

        def build(base_address: int) -> Program:
            return self.build_single_core(base_address, ctx, expected_signature)

        return build


def emit_epilogue(
    asm: PhasedBuilder,
    ctx: RoutineContext,
    expected_signature: int | None,
) -> None:
    """Signature check + mailbox verdict (shared by all program shapes).

    The mailbox lives in the core-private D-TCM so the verdict is
    visible to the outside world without touching the (possibly dirty,
    about-to-be-invalidated) data cache.
    """
    asm.align()
    if expected_signature is None:
        return
    label = f"__sig_fail_{asm.instruction_count}"
    done = f"__sig_done_{asm.instruction_count}"
    asm.li(WRAP_TMP, expected_signature)
    asm.bne(SIG_REG, WRAP_TMP, label)
    asm.li(WRAP_TMP, RESULT_PASS)
    asm.li(DATA_PTR, ctx.mailbox_address)
    asm.sw(WRAP_TMP, 0, DATA_PTR)
    asm.j(done)
    asm.label(label)
    asm.li(WRAP_TMP, RESULT_FAIL)
    asm.li(DATA_PTR, ctx.mailbox_address)
    asm.sw(WRAP_TMP, 0, DATA_PTR)
    asm.label(done)
    asm.align()
