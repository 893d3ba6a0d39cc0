"""The cache-based deterministic execution wrapper (the paper's Fig. 2b).

Transforms an unmodified single-core self-test body into the multi-core
deterministic version by applying the three rules of Section III:

1. **Two-iteration loop.**  The body executes twice: the *loading loop*
   (iteration 0) streams the code — and, with a write-allocate D-cache,
   the referenced data — into the core-private caches; the *execution
   loop* (iteration 1) then runs entirely cache-resident, isolated from
   bus contention.  The signature is re-seeded at the top of every
   iteration and the TESTWIN CSR carries the iteration number, so the
   loading loop performs **no signature computation that is ever
   checked** and none of its module activations count as observable.
2. **Whole-routine cache residency.**  Enforced statically by
   :mod:`repro.core.validator` / :mod:`repro.core.splitter` (rules 2.1
   and 2.2 of the paper).
3. **Cache invalidation first** (block *b* of Fig. 2b).

With a no-write-allocate D-cache the emitted body is "lightly modified"
exactly as the paper prescribes: every store is followed by a dummy load
from the same address, whose read miss pulls the line in during the
loading loop so the execution loop's stores hit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.instructions import (
    CACHECFG_DCACHE_EN,
    CACHECFG_ICACHE_EN,
    CACHECFG_WRITE_ALLOCATE,
    Csr,
    Instruction,
    Mnemonic,
)
from repro.isa.program import Program
from repro.stl.conventions import DATA_PTR, SIG_T1, WRAP_ITER, WRAP_TMP
from repro.stl.packets import PhasedBuilder
from repro.stl.routine import RoutineContext, TestRoutine, emit_epilogue
from repro.stl.signature import emit_signature_init


@dataclass(frozen=True)
class CacheWrapperOptions:
    """Build-time knobs; the non-default settings are ablations.

    ``dummy_loads=None`` applies the paper's rule automatically (dummy
    loads if and only if the D-cache is no-write-allocate); forcing it
    False under no-write-allocate reproduces the write-miss traffic the
    rule exists to avoid.
    """

    write_allocate: bool = True
    invalidate: bool = True
    loading_loop: bool = True
    dummy_loads: bool | None = None

    @property
    def effective_dummy_loads(self) -> bool:
        if self.dummy_loads is None:
            return not self.write_allocate
        return self.dummy_loads


class DummyLoadBuilder(PhasedBuilder):
    """A builder that appends a dummy load after every store it emits."""

    def __init__(self, base_address: int, name: str, dummy_loads: bool):
        super().__init__(base_address, name)
        self.dummy_loads = dummy_loads

    def emit(self, instr: Instruction) -> int:
        index = super().emit(instr)
        if self.dummy_loads and instr.spec.is_store:
            load = Mnemonic.LW if instr.mnemonic is Mnemonic.SW else Mnemonic.LBU
            super().emit(
                Instruction(load, rd=SIG_T1, rs1=instr.rs1, imm=instr.imm)
            )
        return index


def build_cache_wrapped(
    routine: TestRoutine,
    base_address: int,
    ctx: RoutineContext,
    expected_signature: int | None = None,
    options: CacheWrapperOptions = CacheWrapperOptions(),
) -> Program:
    """Build the multi-core, cache-based version of ``routine``."""
    asm = DummyLoadBuilder(
        base_address, f"{routine.name}_cache", options.effective_dummy_loads
    )
    # Block b: configure and invalidate both private caches.
    cachecfg = CACHECFG_ICACHE_EN | CACHECFG_DCACHE_EN
    if options.write_allocate:
        cachecfg |= CACHECFG_WRITE_ALLOCATE
    asm.li(WRAP_TMP, cachecfg)
    asm.csrw(Csr.CACHECFG, WRAP_TMP)
    if options.invalidate:
        asm.icinv()
        asm.dcinv()
    asm.li(WRAP_ITER, 0 if options.loading_loop else 1)
    asm.label("wrapper_loop")
    # Iteration prologue: TESTWIN <- iteration (0 = loading, 1 = execution)
    # and a fresh signature seed, discarding loading-loop accumulation.
    asm.csrw(Csr.TESTWIN, WRAP_ITER)
    emit_signature_init(asm)
    asm.li(DATA_PTR, ctx.data_base)
    asm.align()
    # Blocks c/d: the unmodified single-core test program body.
    routine.emit_body(asm, ctx.with_testwin_reg(WRAP_ITER))
    # Close the observation window at the end of the body, *inside* the
    # loop: this code executes during the loading loop too, so its cache
    # line is warm when the execution loop reaches it.  Closing after
    # the loop instead would put the window-clearing instruction on a
    # line the loading loop never committed (its speculative fill is
    # discarded by the loop-back redirect), and fetching it would be a
    # bus transaction inside the still-open window.
    asm.li(WRAP_TMP, 0)
    asm.csrw(Csr.TESTWIN, WRAP_TMP)
    # Fetch-skid guard band: the front end runs up to a full issue queue
    # (8 words) ahead of the issue stage, so without padding it would
    # cross into the cold post-loop line — and miss onto the bus — a
    # cycle before the closing CSR write issues.  Eight warm NOPs (plus
    # the loop tail) keep the first cold fetch strictly after the close.
    asm.nop(8)
    asm.align()
    asm.addi(WRAP_ITER, WRAP_ITER, 1)
    asm.li(WRAP_TMP, 2)
    asm.branch_far(Mnemonic.BNE, WRAP_ITER, WRAP_TMP, "wrapper_loop")
    # Block e: signature check (only the execution loop's signature
    # survives, since each iteration re-seeded SIG_REG).
    emit_epilogue(asm, ctx, expected_signature)
    asm.halt()
    return asm.build()


def cache_wrapped_builder(
    routine: TestRoutine,
    ctx: RoutineContext,
    expected_signature: int | None = None,
    options: CacheWrapperOptions = CacheWrapperOptions(),
):
    """Relocatable ``build(base_address)`` callable for the loader."""

    def build(base_address: int) -> Program:
        return build_cache_wrapped(
            routine, base_address, ctx, expected_signature, options
        )

    return build
