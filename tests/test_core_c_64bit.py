"""Pipeline-level tests specific to core C's 64-bit extension."""

import pytest

from repro.cpu.injection import DataBitFault, SelectFault, install
from repro.cpu.recording import FwdSource
from repro.isa.instructions import Instruction, Mnemonic
from repro.soc import Soc
from repro.stl.packets import PhasedBuilder


def run_on_core_c(build, fault=None, recording=True):
    soc = Soc()
    core = soc.cores[2]
    core.recording = recording
    if fault is not None:
        install(core, fault)
    asm = PhasedBuilder(core.itcm.base, "c64")
    build(asm)
    asm.halt()
    program = asm.build()
    for address, word in zip(
        range(program.base_address, program.end_address, 4),
        program.encoded_words(),
    ):
        core.itcm.write_word(address, word)
    core.testwin = 1
    soc.start_core(2, program.base_address)
    soc.run(max_cycles=50_000)
    return core


def test_pair_forwarding_both_halves():
    def build(asm):
        asm.li(4, 0x1111)
        asm.li(5, 0x2222)
        asm.li(6, 0x0003)
        asm.li(7, 0x0004)
        asm.align()
        asm.packet(Instruction(Mnemonic.ADD64, rd=8, rs1=4, rs2=6))
        asm.packet(Instruction(Mnemonic.XOR64, rd=10, rs1=8, rs2=8))

    core = run_on_core_c(build)
    # ADD64: (0x2222_00001111) + (0x4_00000003) = 0x2226_00001114.
    assert core.regfile.read(8) == 0x1114
    assert core.regfile.read(9) == 0x2226
    # XOR64 with itself consumed the pair over a forwarding path.
    assert core.regfile.read(10) == 0
    assert core.regfile.read(11) == 0
    wide = [r for r in core.log.forwarding if r.width == 64]
    assert any(r.select == FwdSource.EX0 for r in wide)


def test_wide_record_packs_both_halves():
    def build(asm):
        asm.li(4, 0xAAAA0001)
        asm.li(5, 0x55550002)
        asm.align()
        asm.packet(Instruction(Mnemonic.OR64, rd=6, rs1=4, rs2=4))
        asm.packet(Instruction(Mnemonic.XOR64, rd=8, rs1=6, rs2=6))

    core = run_on_core_c(build)
    wide = [
        r for r in core.log.forwarding
        if r.width == 64 and r.select == FwdSource.EX0
    ]
    assert wide
    value = wide[-1].candidates[int(FwdSource.EX0)]
    assert value == (0x55550002 << 32) | 0xAAAA0001


def test_mixed_width_dependency():
    """A 32-bit producer feeding one half of a 64-bit consumer."""

    def build(asm):
        asm.li(4, 0)
        asm.li(5, 0)
        asm.li(6, 0)
        asm.li(7, 0)
        asm.align()
        # Write only the high half (r5) with a 32-bit op, then consume
        # the pair (r4, r5).
        asm.packet(Instruction(Mnemonic.ADDI, rd=5, rs1=0, imm=9))
        asm.packet(Instruction(Mnemonic.ADD64, rd=8, rs1=4, rs2=6))

    core = run_on_core_c(build)
    assert core.regfile.read(9) == 9  # high half propagated


def test_carry_crosses_word_boundary():
    def build(asm):
        asm.li(4, 0xFFFFFFFF)
        asm.li(5, 0x0)
        asm.li(6, 0x1)
        asm.li(7, 0x0)
        asm.align()
        asm.packet(Instruction(Mnemonic.ADD64, rd=8, rs1=4, rs2=6))

    core = run_on_core_c(build)
    assert core.regfile.read(8) == 0
    assert core.regfile.read(9) == 1


def forwarded_add64(asm):
    asm.li(4, 20)
    asm.li(5, 0)
    asm.li(6, 40)
    asm.li(7, 0)
    asm.align()
    asm.packet(Instruction(Mnemonic.ADD64, rd=8, rs1=4, rs2=4))
    asm.packet(Instruction(Mnemonic.ADD64, rd=10, rs1=8, rs2=6))


@pytest.mark.parametrize(
    "bit, low, high", ((None, 80, 0), (0, 81, 0), (32, 80, 1)), ids=str
)
def test_injected_fault_reaches_the_wide_operand(bit, low, high):
    """A data-bit fault on the EX0 column corrupts the 64-bit operand
    it selects, low word or high word, while the record keeps the
    fault-free view."""
    fault = None if bit is None else DataBitFault(0, 0, FwdSource.EX0, bit, 1)
    core = run_on_core_c(forwarded_add64, fault)
    assert (core.regfile.read(10), core.regfile.read(11)) == (low, high)
    wide = [r for r in core.log.forwarding if r.width == 64]
    forwarded = [r for r in wide if r.select == FwdSource.EX0]
    assert [(r.slot, r.operand) for r in forwarded] == [(0, 0)]
    assert forwarded[0].candidates[int(FwdSource.EX0)] == 40


def test_select_fault_reaches_the_wide_operand_without_recording():
    """Field hardware logs nothing, yet a forced select still picks the
    stale register-file pair (r8 not yet written back) over EX0."""
    fault = SelectFault(0, 0, forced=FwdSource.RF)
    core = run_on_core_c(forwarded_add64, fault, recording=False)
    assert not core.log.forwarding
    assert (core.regfile.read(10), core.regfile.read(11)) == (40, 0)
