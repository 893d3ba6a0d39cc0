"""Tests for the programmatic assembly builder."""

import pytest

from repro.errors import AssemblyError
from repro.isa.builder import AsmBuilder
from repro.isa.instructions import Csr, Mnemonic
from repro.utils.bitops import to_unsigned


def test_labels_resolve_backward_and_forward():
    asm = AsmBuilder(0x100)
    asm.label("top")
    asm.addi(1, 0, 1)
    asm.beq(1, 0, "end")
    asm.bne(1, 0, "top")
    asm.label("end")
    asm.halt()
    program = asm.build()
    # beq at index 1 -> end at index 3: offset +2.
    assert program.code[1].imm == 2
    # bne at index 2 -> top at index 0: offset -2.
    assert program.code[2].imm == -2


def test_undefined_label_rejected():
    asm = AsmBuilder()
    asm.j("nowhere")
    with pytest.raises(AssemblyError):
        asm.build()


def test_duplicate_label_rejected():
    asm = AsmBuilder()
    asm.label("x")
    asm.nop()
    with pytest.raises(AssemblyError):
        asm.label("x")


def test_jump_encodes_absolute_word_address():
    asm = AsmBuilder(0x400)
    asm.nop()
    asm.label("target")
    asm.nop()
    asm.j("target")
    program = asm.build()
    assert program.code[2].imm == (0x400 + 4) // 4


def test_branch_out_of_range_suggests_far():
    asm = AsmBuilder()
    asm.label("top")
    for _ in range(600):
        asm.nop()
    asm.beq(0, 0, "top")
    with pytest.raises(AssemblyError, match="branch_far"):
        asm.build()


def test_branch_far_expands_to_inverted_branch_plus_jump():
    asm = AsmBuilder()
    asm.label("top")
    for _ in range(600):
        asm.nop()
    asm.branch_far(Mnemonic.BNE, 1, 2, "top")
    asm.halt()
    program = asm.build()
    # The expansion: BEQ (inverted) skipping a J.
    mnemonics = [i.mnemonic for i in program.code[600:603]]
    assert mnemonics == [Mnemonic.BEQ, Mnemonic.J, Mnemonic.HALT]
    assert program.code[601].imm == 0  # jump to word address 0 = "top"


def test_branch_far_rejects_non_branch():
    asm = AsmBuilder()
    with pytest.raises(AssemblyError):
        asm.branch_far(Mnemonic.ADD, 1, 2, "x")


def test_li_small_constant_is_one_instruction():
    asm = AsmBuilder()
    asm.li(5, 42)
    asm.li(6, -3)
    program = asm.build()
    assert [i.mnemonic for i in program.code] == [Mnemonic.ADDI, Mnemonic.ADDI]


def test_li_large_constant_is_lui_ori():
    asm = AsmBuilder()
    asm.li(5, 0xDEADBEEF)
    program = asm.build()
    assert [i.mnemonic for i in program.code] == [Mnemonic.LUI, Mnemonic.ORI]
    assert program.code[0].imm == 0xDEADB
    assert program.code[1].imm == 0xEEF


def test_li_negative_wraps_to_u32():
    asm = AsmBuilder()
    asm.li(5, to_unsigned(-1))
    asm.li(6, -1)
    program = asm.build()
    # Both spellings produce identical encodings.
    assert program.code[0].mnemonic == program.code[1].mnemonic == Mnemonic.ADDI


def test_store_offset_range_checked():
    asm = AsmBuilder()
    with pytest.raises(AssemblyError):
        asm.sw(1, 600, 2)


def test_csr_helpers():
    asm = AsmBuilder()
    asm.csrr(3, Csr.ICU_STATUS)
    asm.csrw(Csr.CACHECFG, 4)
    program = asm.build()
    assert program.code[0].csr == int(Csr.ICU_STATUS)
    assert program.code[1].csr == int(Csr.CACHECFG)


def test_base_address_must_be_aligned():
    with pytest.raises(AssemblyError):
        AsmBuilder(0x101)


def test_data_word_declarations():
    asm = AsmBuilder()
    asm.data_word(0x2000_0000, 0xABCD)
    asm.nop()
    program = asm.build()
    assert program.data[0x2000_0000] == 0xABCD
    with pytest.raises(AssemblyError):
        asm.data_word(0x2000_0001, 1)


def test_symbols_in_built_program():
    asm = AsmBuilder(0x80)
    asm.nop()
    asm.label("here")
    asm.halt()
    program = asm.build()
    assert program.symbols["here"] == 0x84
