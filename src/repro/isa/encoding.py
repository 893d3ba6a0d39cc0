"""Binary encoding of the ISA (32-bit fixed-width instructions).

Bits [31:25] hold the opcode (7 bits, one per mnemonic).  The rest of
each format's layout is :data:`FIELDS`, the one copy the encoder, the
decoder and their range checks read.

Stores and branches trade immediate range for the second source-register
field, exactly like the S/B formats of mainstream RISC ISAs; test-program
generators use ``J`` (25-bit absolute word address) for long-range jumps
such as the loading/execution loop back-edge of the cache-based wrapper.
"""

from __future__ import annotations

from repro.errors import EncodingError
from repro.isa.instructions import SPECS, Format, Instruction, Mnemonic

#: Stable opcode assignment: enumeration order of :class:`Mnemonic`.
OPCODE_OF: dict[Mnemonic, int] = {m: i for i, m in enumerate(Mnemonic)}
MNEMONIC_OF: dict[int, Mnemonic] = {i: m for m, i in OPCODE_OF.items()}

_RD, _RS1, _RS2 = ("rd", 20, 5, False), ("rs1", 15, 5, False), ("rs2", 10, 5, False)

#: Each format's bit fields below the opcode: ``(Instruction attribute,
#: lsb, width, signed)``.  ``LUI``'s result is ``imm << 12``, a branch's
#: ``imm`` is a word offset and a jump's an absolute word address.
FIELDS: dict[Format, tuple[tuple[str, int, int, bool], ...]] = {
    Format.R3: (_RD, _RS1, _RS2),
    Format.I: (_RD, _RS1, ("imm", 0, 15, True)),
    Format.LUI: (_RD, ("imm", 0, 20, False)),
    Format.LOAD: (_RD, _RS1, ("imm", 0, 15, True)),
    Format.STORE: (_RS1, _RS2, ("imm", 0, 10, True)),
    Format.BRANCH: (_RS1, _RS2, ("imm", 0, 10, True)),
    Format.JUMP: (("imm", 0, 25, False),),
    Format.JR: (_RS1,),
    Format.CSRR: (_RD, ("csr", 15, 5, False)),
    Format.CSRW: (("csr", 20, 5, False), _RS1),
    Format.SYS: (),
}


def _bounds(width: int, signed: bool) -> tuple[int, int]:
    if signed:
        return -(1 << (width - 1)), (1 << (width - 1)) - 1
    return 0, (1 << width) - 1


IMM15_MIN, IMM15_MAX = _bounds(15, True)
IMM10_MIN, IMM10_MAX = _bounds(10, True)
IMM20_MAX = _bounds(20, False)[1]
IMM25_MAX = _bounds(25, False)[1]

#: :data:`FIELDS` with each field's value range and mask worked out once.
_LAYOUT = {
    fmt: tuple(
        (name, lsb, *_bounds(width, signed), (1 << width) - 1)
        for name, lsb, width, signed in fields
    )
    for fmt, fields in FIELDS.items()
}


def encode(instr: Instruction) -> int:
    """Encode one instruction to its 32-bit word."""
    word = OPCODE_OF[instr.mnemonic] << 25
    for name, lsb, low, high, mask in _LAYOUT[instr.spec.format]:
        value = getattr(instr, name)
        if not low <= value <= high:
            raise EncodingError(f"{name}={value} outside [{low}, {high}]")
        word |= (value & mask) << lsb
    return word


def decode(word: int) -> Instruction:
    """Decode a 32-bit word back to an :class:`Instruction`."""
    if not 0 <= word <= 0xFFFF_FFFF:
        raise EncodingError(f"instruction word out of range: {word:#x}")
    opcode = word >> 25
    mnemonic = MNEMONIC_OF.get(opcode)
    if mnemonic is None:
        raise EncodingError(f"unknown opcode {opcode} in word {word:#010x}")
    fields = {}
    for name, lsb, _, high, mask in _LAYOUT[SPECS[mnemonic].format]:
        value = (word >> lsb) & mask
        # Only a signed field's range stops short of its mask.
        fields[name] = value - mask - 1 if value > high else value
    return Instruction(mnemonic, **fields)
