"""Tests for the instruction-set metadata (specs, register sets)."""

from repro.isa.instructions import (
    NUM_EVENTS,
    SPECS,
    Csr,
    Event,
    Format,
    Instruction,
    Mnemonic,
    format_instruction,
)


def test_every_mnemonic_has_a_spec():
    assert set(SPECS) == set(Mnemonic)


def test_trap_instructions_carry_events():
    trapping = [m for m, s in SPECS.items() if s.is_trap]
    assert len(trapping) == NUM_EVENTS
    assert {SPECS[m].event for m in trapping} == set(Event)


def test_memory_class_flags():
    assert SPECS[Mnemonic.LW].is_load and SPECS[Mnemonic.LW].is_mem
    assert SPECS[Mnemonic.SW].is_store and SPECS[Mnemonic.SW].is_mem
    assert not SPECS[Mnemonic.ADD].is_mem


def test_source_regs_r3():
    instr = Instruction(Mnemonic.ADD, rd=3, rs1=4, rs2=5)
    assert instr.source_regs() == (4, 5)
    assert instr.dest_regs() == (3,)


def test_source_regs_64bit_pairs():
    instr = Instruction(Mnemonic.ADD64, rd=2, rs1=4, rs2=6)
    assert instr.source_regs() == (4, 5, 6, 7)
    assert instr.dest_regs() == (2, 3)


def test_dest_regs_r0_discarded():
    assert Instruction(Mnemonic.ADD, rd=0, rs1=1, rs2=2).dest_regs() == ()


def test_jal_writes_link_register():
    assert Instruction(Mnemonic.JAL, imm=64).dest_regs() == (31,)


def test_store_reads_base_and_data():
    instr = Instruction(Mnemonic.SW, rs1=10, rs2=11, imm=4)
    assert set(instr.source_regs()) == {10, 11}
    assert instr.dest_regs() == ()


def test_branch_reads_both_operands():
    instr = Instruction(Mnemonic.BEQ, rs1=1, rs2=2, imm=-4)
    assert instr.source_regs() == (1, 2)
    assert instr.spec.is_branch


def test_system_instructions_flagged():
    for mnemonic in (Mnemonic.CSRR, Mnemonic.CSRW, Mnemonic.HALT,
                     Mnemonic.ICINV, Mnemonic.DCINV, Mnemonic.SYNC):
        assert SPECS[mnemonic].is_system
    assert not SPECS[Mnemonic.NOP].is_system  # NOP may dual-issue


def test_format_instruction_text():
    assert str(Instruction(Mnemonic.ADD, rd=1, rs1=2, rs2=3)) == "add r1, r2, r3"
    assert str(Instruction(Mnemonic.LW, rd=4, rs1=5, imm=8)) == "lw r4, 8(r5)"
    assert str(Instruction(Mnemonic.SW, rs1=5, rs2=4, imm=-4)) == "sw r4, -4(r5)"
    assert (
        format_instruction(Instruction(Mnemonic.CSRR, rd=1, csr=int(Csr.CYCLES)))
        == "csrr r1, cycles"
    )
    assert str(Instruction(Mnemonic.NOP)) == "nop"


def test_formats_cover_all_mnemonics():
    for mnemonic in Mnemonic:
        assert isinstance(SPECS[mnemonic].format, Format)
