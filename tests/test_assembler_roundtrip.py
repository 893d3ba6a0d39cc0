"""Property test: random programs survive listing -> assemble round-trips,
plus tests of the `li` pseudo-instruction."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import AsmBuilder, assemble
from repro.isa.encoding import IMM10_MAX, IMM10_MIN, IMM15_MAX, IMM15_MIN
from repro.isa.instructions import Mnemonic
from repro.utils.bitops import MASK32

regs = st.integers(min_value=0, max_value=31)


@st.composite
def simple_programs(draw):
    asm = AsmBuilder(4 * draw(st.integers(min_value=0, max_value=1 << 18)))
    asm.label("top")
    for _ in range(draw(st.integers(min_value=1, max_value=15))):
        choice = draw(st.integers(min_value=0, max_value=5))
        if choice == 0:
            asm.add(draw(regs), draw(regs), draw(regs))
        elif choice == 1:
            asm.addi(
                draw(regs), draw(regs),
                draw(st.integers(min_value=IMM15_MIN, max_value=IMM15_MAX)),
            )
        elif choice == 2:
            asm.lw(
                draw(regs),
                draw(st.integers(min_value=IMM15_MIN, max_value=IMM15_MAX)),
                draw(regs),
            )
        elif choice == 3:
            asm.sw(
                draw(regs),
                draw(st.integers(min_value=IMM10_MIN, max_value=IMM10_MAX)),
                draw(regs),
            )
        elif choice == 4:
            asm.beq(draw(regs), draw(regs), "top")
        else:
            asm.nop()
    asm.halt()
    return asm.build()


@settings(max_examples=60, deadline=None)
@given(simple_programs())
def test_listing_assemble_roundtrip(program):
    again = assemble(program.listing())
    assert again.base_address == program.base_address
    assert again.encoded_words() == program.encoded_words()


@given(st.integers(min_value=0, max_value=MASK32))
def test_li_pseudo_matches_builder(value):
    source = f"li r5, {value:#x}\nhalt\n"
    program = assemble(source)
    asm = AsmBuilder()
    asm.li(5, value)
    asm.halt()
    assert program.encoded_words() == asm.build().encoded_words()


def test_li_pseudo_negative():
    program = assemble("li r3, -7\nhalt\n")
    assert program.code[0].mnemonic is Mnemonic.ADDI
    assert program.code[0].imm == -7


def test_li_pseudo_errors():
    import pytest

    from repro.errors import AssemblyError

    with pytest.raises(AssemblyError):
        assemble("li r3\n")
    with pytest.raises(AssemblyError):
        assemble("li r99, 4\n")
