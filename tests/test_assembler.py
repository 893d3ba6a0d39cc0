"""Tests for the two-pass text assembler."""

import pytest

from repro.errors import AssemblyError
from repro.isa import assemble
from repro.isa.instructions import Mnemonic


def test_basic_program_with_labels():
    program = assemble(
        """
        .org 0x200
        start: addi r1, r0, 3
        loop:  addi r1, r1, -1
               bne r1, r0, loop
               j start
               halt
        """
    )
    assert program.base_address == 0x200
    assert program.symbols["loop"] == 0x204
    assert program.code[2].imm == -1
    assert program.code[3].imm == 0x200 // 4


def test_comments_and_blank_lines_ignored():
    program = assemble("# header\n; also comment\nnop  # trailing\n\nhalt\n")
    assert [i.mnemonic for i in program.code] == [Mnemonic.NOP, Mnemonic.HALT]


def test_memory_operands():
    program = assemble("lw r1, 8(r2)\nsw r3, -4(r4)\nlbu r5, (r6)\n")
    assert program.code[0].imm == 8 and program.code[0].rs1 == 2
    assert program.code[1].imm == -4 and program.code[1].rs2 == 3
    assert program.code[2].imm == 0


def test_csr_names():
    program = assemble("csrr r1, cycles\ncsrw cachecfg, r2\n")
    assert program.code[0].csr == 0
    assert program.code[1].rs1 == 2


def test_zero_register_alias():
    program = assemble("add r1, zero, r2\n")
    assert program.code[0].rs1 == 0


def test_numeric_branch_and_jump_targets():
    program = assemble("beq r1, r2, -2\nj 0x100\n")
    assert program.code[0].imm == -2
    assert program.code[1].imm == 0x40


def test_name_directive():
    program = assemble(".name my_test\nhalt\n")
    assert program.name == "my_test"


def test_word_directive():
    program = assemble(".word 0x20000000, 0x1234\nhalt\n")
    assert program.data[0x2000_0000] == 0x1234


def test_errors_carry_line_numbers():
    with pytest.raises(AssemblyError, match="line 2"):
        assemble("nop\nbogus r1\n")
    with pytest.raises(AssemblyError, match="line 1"):
        assemble("add r1, r2\n")
    with pytest.raises(AssemblyError, match="register"):
        assemble("add r1, r2, r99\n")
    with pytest.raises(AssemblyError, match="CSR"):
        assemble("csrr r1, nonsense\n")


@pytest.mark.parametrize(
    "source",
    [
        pytest.param("addi r1, r2, 99999", id="addi-imm"),
        pytest.param("lw r1, 99999(r2)", id="lw-offset"),
        pytest.param("sw r1, 600(r2)", id="sw-offset"),
        pytest.param("lui r1, 0x100000", id="lui-imm"),
        pytest.param("j -4", id="j-negative"),
        pytest.param("j 0x1002", id="j-unaligned"),
    ],
)
def test_unencodable_instruction_rejected_at_its_line(source):
    with pytest.raises(AssemblyError, match="line 1"):
        assemble(source + "\nhalt\n")


def test_org_after_code_rejected():
    with pytest.raises(AssemblyError):
        assemble("nop\n.org 0x100\n")


def test_base_address_override():
    program = assemble(".org 0x100\nhalt\n", base_address=0x400)
    assert program.base_address == 0x400


def test_listing_roundtrip():
    source = """
    .org 0x300
    top: addi r1, r0, 7
         lw r2, 4(r1)
         sw r2, 8(r1)
         beq r2, r0, top
         csrr r3, instret
         halt
    """
    first = assemble(source)
    second = assemble(first.listing(), base_address=first.base_address)
    assert first.encoded_words() == second.encoded_words()
