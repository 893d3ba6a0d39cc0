"""Property test: every mnemonic survives print -> assemble -> encode.

For each :class:`Mnemonic` the strategy draws every instruction field
over its format's full range, bounds included, prints the instruction
with ``format_instruction`` and assembles the text back.  The assembled
word must equal the encoding of the drawn instruction, so the printer,
the assembler's operand parser and the encoder agree on every format's
operands.  Fields a format does not use are drawn too: the printer and
the encoder must both ignore them.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import assemble
from repro.isa.encoding import (
    IMM10_MAX,
    IMM10_MIN,
    IMM15_MAX,
    IMM15_MIN,
    IMM20_MAX,
    IMM25_MAX,
    encode,
)
from repro.isa.instructions import (
    Csr,
    Format,
    Instruction,
    Mnemonic,
    format_instruction,
)

#: Immediate range of each format that has an immediate (test-local,
#: written from the documented encoding, not read from ``FIELDS``).
IMM_RANGE = {
    Format.I: (IMM15_MIN, IMM15_MAX),
    Format.LOAD: (IMM15_MIN, IMM15_MAX),
    Format.LUI: (0, IMM20_MAX),
    Format.STORE: (IMM10_MIN, IMM10_MAX),
    Format.BRANCH: (IMM10_MIN, IMM10_MAX),
    Format.JUMP: (0, IMM25_MAX),
}


def _bounded(low: int, high: int):
    """Integers in ``[low, high]`` with both bounds drawn often."""
    return st.one_of(st.sampled_from((low, high)), st.integers(low, high))


def _instructions(mnemonic: Mnemonic):
    fmt = Instruction(mnemonic).spec.format
    return st.builds(
        Instruction,
        st.just(mnemonic),
        rd=_bounded(0, 31),
        rs1=_bounded(0, 31),
        rs2=_bounded(0, 31),
        imm=_bounded(*IMM_RANGE.get(fmt, (0, 0))),
        csr=st.sampled_from([int(c) for c in Csr]),
    )


@pytest.mark.parametrize("mnemonic", list(Mnemonic), ids=lambda m: m.value)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_print_assemble_roundtrip(mnemonic, data):
    instr = data.draw(_instructions(mnemonic))
    program = assemble(format_instruction(instr) + "\n")
    assert program.encoded_words() == [encode(instr)]
    assert program.code[0].mnemonic is mnemonic
