"""Synchronous imprecise-interrupt (ICU) self-test routine.

Follows the strategy of Singh et al. [21] the paper adopts for its
Interrupt Control Unit experiments: every interrupt source is excited by
an instruction sequence that raises it, and the ICU's software-visible
registers (status, imprecision counter, recognition count) are read
back into the test signature.

Because the interrupts are *imprecise*, the value of the imprecision
counter — and even whether the status read happens before or after
recognition — depends on how many younger instructions retire before
the recognition slot.  In a stall-free (cache-resident) stream that
number is a deterministic property of the emitted code; under bus
contention it varies run to run, destabilising the signature
(Section II / Table III).

Each event is exercised with several *recognition windows* (filler
packets between the trigger and the status read), plus paired-trigger
blocks where two events sharing a status bit on cores A/B are raised
back-to-back: their merged recognition is indistinguishable on the
shared-bit mapping, masking the event-differentiation logic — the
mechanism behind core C's ~10 % higher ICU coverage (Section IV-D).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.cpu.core import CoreModel
from repro.isa.instructions import Csr, Event, Instruction, Mnemonic
from repro.stl.packets import PhasedBuilder
from repro.stl.routine import RoutineContext, TestRoutine
from repro.stl.signature import emit_signature_update

# Registers used by trigger sequences and status reads.
_RA, _RB, _RD, _RS = 5, 6, 7, 9
_FILL = (10, 11, 12, 13)

#: Recognition windows (filler packets between trigger and status read).
RECOGNITION_WINDOWS = (0, 2, 4, 7)
#: Recognition windows of the paired-trigger blocks.
PAIRED_WINDOWS = (0, 3)


def _trigger_emitters() -> dict[Event, Callable[[PhasedBuilder], None]]:
    """Per-event sequences that deterministically raise the event."""

    def ovf_add(asm: PhasedBuilder) -> None:
        asm.li(_RA, 0x7FFFFFFF)
        asm.li(_RB, 1)
        asm.align()
        asm.packet(Instruction(Mnemonic.ADDO, rd=_RD, rs1=_RA, rs2=_RB))

    def ovf_sub(asm: PhasedBuilder) -> None:
        asm.li(_RA, 0x80000000)
        asm.li(_RB, 1)
        asm.align()
        asm.packet(Instruction(Mnemonic.SUBO, rd=_RD, rs1=_RA, rs2=_RB))

    def ovf_mul(asm: PhasedBuilder) -> None:
        asm.li(_RA, 0x00010000)
        asm.li(_RB, 0x00010000)
        asm.align()
        asm.packet(Instruction(Mnemonic.MULO, rd=_RD, rs1=_RA, rs2=_RB))

    def sat(asm: PhasedBuilder) -> None:
        asm.li(_RA, 0x7FFFFFFF)
        asm.li(_RB, 0x7FFFFFFF)
        asm.align()
        asm.packet(Instruction(Mnemonic.SATADD, rd=_RD, rs1=_RA, rs2=_RB))

    def div0(asm: PhasedBuilder) -> None:
        asm.li(_RA, 1234)
        asm.li(_RB, 0)
        asm.align()
        asm.packet(Instruction(Mnemonic.DIVT, rd=_RD, rs1=_RA, rs2=_RB))

    def shifto(asm: PhasedBuilder) -> None:
        asm.li(_RA, 0xF0000001)
        asm.li(_RB, 4)
        asm.align()
        asm.packet(Instruction(Mnemonic.SLLO, rd=_RD, rs1=_RA, rs2=_RB))

    return {
        Event.OVF_ADD: ovf_add,
        Event.OVF_SUB: ovf_sub,
        Event.OVF_MUL: ovf_mul,
        Event.SAT: sat,
        Event.DIV0: div0,
        Event.SHIFTO: shifto,
    }


def _emit_window(asm: PhasedBuilder, packets: int) -> None:
    """Filler packets keeping retirement busy (no recognition bubble)."""
    for i in range(packets):
        asm.packet(
            Instruction(Mnemonic.ADD, rd=_FILL[i % 2], rs1=0, rs2=0),
            Instruction(Mnemonic.ADD, rd=_FILL[2 + i % 2], rs1=0, rs2=0),
        )


def _emit_status_reads(asm: PhasedBuilder) -> None:
    """Fold the ICU's software-visible state into the signature."""
    asm.align()
    asm.csrr(_RS, Csr.ICU_STATUS)
    emit_signature_update(asm, _RS)
    asm.csrr(_RS, Csr.ICU_IMPREC)
    emit_signature_update(asm, _RS)
    asm.csrr(_RS, Csr.ICU_COUNT)
    emit_signature_update(asm, _RS)
    asm.csrw(Csr.ICU_ACK, 0)
    asm.align()


def make_interrupt_routine(
    model: CoreModel,
    windows: tuple[int, ...] = RECOGNITION_WINDOWS,
) -> TestRoutine:
    """Build the imprecise-interrupt test routine for one core model."""
    triggers = _trigger_emitters()

    def emit_body(asm: PhasedBuilder, ctx: RoutineContext) -> None:
        # Isolated-event blocks: one trigger, one recognition window.
        for event in Event:
            trigger = triggers[event]
            for window in windows:
                asm.align()
                trigger(asm)
                _emit_window(asm, window)
                _emit_status_reads(asm)
        # Paired-trigger blocks: both members of a status-bit pair raised
        # back-to-back; on shared-bit mappings (cores A/B) their merged
        # recognition is indistinguishable.
        for first in (Event.OVF_ADD, Event.OVF_MUL, Event.DIV0):
            partner = Event(int(first) + 1)
            for window in PAIRED_WINDOWS:
                asm.align()
                triggers[first](asm)
                triggers[partner](asm)
                _emit_window(asm, window)
                _emit_status_reads(asm)

    return TestRoutine(
        name=f"icu_{model.name.lower()}",
        module="ICU",
        emit_body=emit_body,
        uses_pcs=False,
        description="Synchronous imprecise interrupt test (after [21])",
    )
