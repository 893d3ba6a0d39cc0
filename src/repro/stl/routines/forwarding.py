"""Exhaustive forwarding-logic / HDCU self-test routine.

Re-implements the structure of the dual-issue SBST algorithm of
Bernardi et al. [19] that the paper adopts (Section IV-A): it
"exhaustively tests all the possible existing forwarding paths, both
interpipeline (dependencies between instructions of the same issue
packet) and intrapipeline (dependencies between instructions of two
consecutive issue packets)", and optionally "leverages performance
counters for tracking the number of pipeline stalls".

A *path* is (producer slot, packet distance, consumer slot, consumer
operand port): 2 x 2 x 2 x 2 = 16 paths, each exercised with a rotating
subset of marching data patterns.  Every block follows the same shape::

    li   rS, V        # producer source value
    li   rP, ~V       # stale value: what the RF would wrongly supply
    <spacing packet>  # retire the stale write
    <producer packet> # OR rP, rS, r0 in the chosen slot     -> rP = V
    <mid packet>      # only for distance 2
    <consumer packet> # XOR rC, rP, rQ in the chosen slot/port
    <MISR update(rC)>

In a stall-free stream the consumer receives V over the intended
forwarding path; under fetch starvation the packet structure splits and
the consumer silently reads the register file instead — same signature,
fewer excited paths (the paper's Section II uncertain-coverage case).
The intra-packet ("interpipeline") dependency case is the distance-1
producer-slot-0 split, which the dual-issue front end creates by
breaking the dependent pair.

On core C the same blocks are emitted with the 64-bit register-pair
instructions; the 32-bit signature can only observe the upper word of a
result when the block explicitly folds it, which the original algorithm
does for only a fraction of the patterns — reproducing the signature
masking that lowers core C's forwarding coverage (Section IV-C).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.core import CoreModel
from repro.isa.instructions import Csr, Instruction, Mnemonic
from repro.stl.conventions import DATA_PTR
from repro.stl.packets import PhasedBuilder
from repro.stl.routine import RoutineContext, TestRoutine, emit_testwin
from repro.stl.signature import emit_signature_update
from repro.utils.bitops import MASK32

#: Marching data patterns; each path gets a rotating subset so the union
#: over all paths covers every pattern in both polarities per bit.
DATA_PATTERNS = (
    0x00000000,
    0xFFFFFFFF,
    0xAAAAAAAA,
    0x55555555,
    0x33333333,
    0xCCCCCCCC,
    0x0F0F0F0F,
    0xF0F0F0F0,
    0x00FF00FF,
    0xFF00FF00,
    0x0000FFFF,
    0xFFFF0000,
)

# Default register allocation (the load-use blocks use it as-is).
_RS, _RP, _RQ, _RC = 5, 6, 8, 9
_FILL = (10, 11, 12, 13)
#: Value of the consumer's second operand in every block.
_Q_VALUE = 0x0F0F3CA5
#: On core C, every FOLD_HIGH_PERIOD-th block leaves the upper word of
#: its result out of the signature (the rest fold it).
FOLD_HIGH_PERIOD = 3

#: Register pool the pattern blocks rotate through.  Exhausting the
#: 5-bit register-index space matters as much as the data patterns: the
#: HDCU's comparators are tested by the *indices* of the producers and
#: consumers in flight, so each block draws a fresh window of this pool.
_REG_POOL = tuple(range(1, 21))


@dataclass(frozen=True)
class _BlockRegs:
    """Registers used by one pattern block."""

    rs: int  # producer source (holds the pattern value)
    rp: int  # producer destination / forwarded register
    rq: int  # consumer's second operand
    rc: int  # consumer destination
    fill: tuple[int, int, int, int]


def _regs_for_block(index: int) -> _BlockRegs:
    pool = _REG_POOL
    start = (index * 3) % len(pool)
    picks = [pool[(start + i) % len(pool)] for i in range(8)]
    return _BlockRegs(
        rs=picks[0], rp=picks[1], rq=picks[2], rc=picks[3], fill=tuple(picks[4:8])
    )


def _pair_regs_for_block(index: int) -> _BlockRegs:
    """Even register pairs for the 64-bit blocks (core C)."""
    pairs = tuple(range(2, 20, 2))  # 2,4,...,18
    start = (index * 3) % len(pairs)
    picks = [pairs[(start + i) % len(pairs)] for i in range(7)]
    return _BlockRegs(
        rs=picks[0], rp=picks[1], rq=picks[2], rc=picks[3],
        fill=(picks[4] + 1, picks[5] + 1, picks[6] + 1, picks[4]),
    )


@dataclass(frozen=True)
class ForwardingPath:
    """One of the 16 producer->consumer forwarding paths."""

    producer_slot: int
    distance: int
    consumer_slot: int
    operand: int

    @property
    def label(self) -> str:
        return (
            f"p{self.producer_slot}d{self.distance}"
            f"c{self.consumer_slot}o{self.operand}"
        )


def all_paths() -> tuple[ForwardingPath, ...]:
    """The full path enumeration of the exhaustive algorithm."""
    return tuple(
        ForwardingPath(p, d, c, o)
        for p in (0, 1)
        for d in (1, 2)
        for c in (0, 1)
        for o in (0, 1)
    )


def _filler(reg: int) -> Instruction:
    return Instruction(Mnemonic.ADD, rd=reg, rs1=0, rs2=0)


def _emit_block_32(
    asm: PhasedBuilder, path: ForwardingPath, value: int, regs: _BlockRegs
) -> None:
    """One 32-bit pattern block exercising ``path`` with ``value``."""
    stale = ~value & MASK32
    fill = regs.fill
    asm.align()
    asm.li(regs.rq, _Q_VALUE)
    asm.li(regs.rs, value)
    asm.li(regs.rp, stale)
    asm.align()
    # Spacing packet: lets the stale write of rP retire so the register
    # file really holds ~V when the consumer issues.
    asm.packet(_filler(fill[0]), _filler(fill[1]))
    producer = Instruction(Mnemonic.OR, rd=regs.rp, rs1=regs.rs, rs2=0)
    if path.producer_slot == 0:
        asm.packet(producer, _filler(fill[2]))
    else:
        asm.packet(_filler(fill[2]), producer)
    if path.distance == 2:
        asm.packet(_filler(fill[0]), _filler(fill[3]))
    if path.operand == 0:
        consumer = Instruction(Mnemonic.XOR, rd=regs.rc, rs1=regs.rp, rs2=regs.rq)
    else:
        consumer = Instruction(Mnemonic.XOR, rd=regs.rc, rs1=regs.rq, rs2=regs.rp)
    if path.consumer_slot == 0:
        asm.packet(consumer, _filler(fill[1]))
    else:
        asm.packet(_filler(fill[3]), consumer)
    asm.align()
    emit_signature_update(asm, regs.rc)


def _emit_block_64(
    asm: PhasedBuilder,
    ctx: RoutineContext,
    path: ForwardingPath,
    value: int,
    fold_high: bool,
    regs: _BlockRegs,
) -> None:
    """One 64-bit pattern block (core C extended datapath)."""
    high = (value ^ 0xFFFF0000) & MASK32
    stale_lo, stale_hi = ~value & MASK32, ~high & MASK32
    fill = regs.fill
    asm.align()
    if fold_high:
        emit_testwin(asm, ctx, high=True)
    asm.li(regs.rq, _Q_VALUE)
    asm.li(regs.rq + 1, ~_Q_VALUE & MASK32)
    asm.li(regs.rs, value)
    asm.li(regs.rs + 1, high)
    asm.li(regs.rp, stale_lo)
    asm.li(regs.rp + 1, stale_hi)
    asm.align()
    asm.packet(_filler(fill[0]), _filler(fill[1]))
    producer = Instruction(Mnemonic.OR64, rd=regs.rp, rs1=regs.rs, rs2=regs.rs)
    if path.producer_slot == 0:
        asm.packet(producer, _filler(fill[2]))
    else:
        asm.packet(_filler(fill[2]), producer)
    if path.distance == 2:
        asm.packet(_filler(fill[0]), _filler(fill[1]))
    if path.operand == 0:
        consumer = Instruction(Mnemonic.XOR64, rd=regs.rc, rs1=regs.rp, rs2=regs.rq)
    else:
        consumer = Instruction(Mnemonic.XOR64, rd=regs.rc, rs1=regs.rq, rs2=regs.rp)
    if path.consumer_slot == 0:
        asm.packet(consumer, _filler(fill[2]))
    else:
        asm.packet(_filler(fill[1]), consumer)
    asm.align()
    emit_signature_update(asm, regs.rc)
    if fold_high:
        emit_signature_update(asm, regs.rc + 1)
        emit_testwin(asm, ctx, high=False)


def _emit_load_use_blocks(asm: PhasedBuilder, count: int) -> None:
    """Load-use hazard blocks: MEM->EX load-data forwarding + HDCU stall."""
    for i in range(count):
        asm.align()
        pattern = DATA_PATTERNS[i % len(DATA_PATTERNS)]
        asm.li(_RS, pattern)
        asm.sw(_RS, 4 * i, DATA_PTR)
        asm.align()
        asm.packet(Instruction(Mnemonic.LW, rd=_RP, rs1=DATA_PTR, imm=4 * i))
        # Immediate consumer: the HDCU must insert exactly one stall and
        # then drive the MEM->EX path with the load data.
        asm.packet(Instruction(Mnemonic.XOR, rd=_RC, rs1=_RP, rs2=_RQ))
        emit_signature_update(asm, _RC)


def _emit_pc_prologue(asm: PhasedBuilder) -> None:
    """Capture performance-counter baselines (full algorithm of [19])."""
    asm.align()
    asm.csrr(22, Csr.HAZSTALL)
    asm.csrr(23, Csr.IFSTALL)
    asm.csrr(24, Csr.MEMSTALL)
    asm.align()


def _emit_pc_epilogue(asm: PhasedBuilder) -> None:
    """Fold performance-counter deltas into the signature."""
    asm.align()
    asm.csrr(25, Csr.HAZSTALL)
    asm.sub(25, 25, 22)
    emit_signature_update(asm, 25)
    asm.csrr(25, Csr.IFSTALL)
    asm.sub(25, 25, 23)
    emit_signature_update(asm, 25)
    asm.csrr(25, Csr.MEMSTALL)
    asm.sub(25, 25, 24)
    emit_signature_update(asm, 25)
    asm.align()


def forwarding_setup_emitter(model: CoreModel, with_pcs: bool):
    """Per-program setup: the consumer's second operand + PC baselines."""

    def setup(asm: PhasedBuilder, ctx: RoutineContext) -> None:
        asm.li(_RQ, _Q_VALUE)
        if with_pcs:
            _emit_pc_prologue(asm)

    return setup


def forwarding_teardown_emitter(model: CoreModel, with_pcs: bool):
    """Per-program teardown: fold the PC deltas into the signature."""

    def teardown(asm: PhasedBuilder, ctx: RoutineContext) -> None:
        if with_pcs:
            _emit_pc_epilogue(asm)

    return teardown


def forwarding_block_emitters(
    model: CoreModel,
    patterns_per_path: int | None = None,
    load_use_blocks: int = 4,
) -> list:
    """The routine as a list of independent block emitters.

    Each element exercises one (path, pattern) pair; the splitter of
    rule 2.2 partitions this list when the whole routine would not fit
    the instruction cache.
    """
    if patterns_per_path is None:
        patterns_per_path = 3 if model.is64 else 5
    blocks = []
    block_index = 0
    for path_index, path in enumerate(all_paths()):
        for k in range(patterns_per_path):
            value = DATA_PATTERNS[(path_index + k * 5) % len(DATA_PATTERNS)]
            if model.is64:
                fold_high = block_index % FOLD_HIGH_PERIOD != FOLD_HIGH_PERIOD - 1
                regs = _pair_regs_for_block(block_index)

                def block64(asm, ctx, path=path, value=value, fold=fold_high, regs=regs):
                    _emit_block_64(asm, ctx, path, value, fold, regs)

                blocks.append(block64)
            else:
                regs = _regs_for_block(block_index)

                def block32(asm, ctx, path=path, value=value, regs=regs):
                    _emit_block_32(asm, path, value, regs)

                blocks.append(block32)
            block_index += 1
    if load_use_blocks:

        def load_use(asm, ctx):
            _emit_load_use_blocks(asm, load_use_blocks)

        blocks.append(load_use)
    return blocks


def make_forwarding_routine(
    model: CoreModel,
    with_pcs: bool = True,
    patterns_per_path: int | None = None,
    load_use_blocks: int = 4,
) -> TestRoutine:
    """Build the forwarding/HDCU test routine for one core model.

    ``with_pcs`` selects the full algorithm (stall-counter deltas in the
    signature, Table III) or the reduced variant with PCs removed
    (Table II).  ``patterns_per_path`` defaults to 5 on the 32-bit cores
    and 3 on core C so the routine fits the 8 KiB instruction cache
    without splitting, matching the paper's setup.
    """
    setup = forwarding_setup_emitter(model, with_pcs)
    teardown = forwarding_teardown_emitter(model, with_pcs)
    blocks = forwarding_block_emitters(model, patterns_per_path, load_use_blocks)

    def emit_body(asm: PhasedBuilder, ctx: RoutineContext) -> None:
        setup(asm, ctx)
        for block in blocks:
            block(asm, ctx)
        teardown(asm, ctx)

    suffix = "pc" if with_pcs else "nopc"
    return TestRoutine(
        name=f"fwd_{model.name.lower()}_{suffix}",
        module="FWD",
        emit_body=emit_body,
        uses_pcs=with_pcs,
        description=(
            "Exhaustive inter-/intra-pipeline forwarding test "
            f"({'with' if with_pcs else 'without'} performance counters)"
        ),
    )
