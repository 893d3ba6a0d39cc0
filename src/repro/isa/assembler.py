"""Two-pass text assembler.

The text syntax matches what :func:`repro.isa.instructions.format_instruction`
prints, so ``assemble(program.listing())`` round-trips.  Supported syntax::

    # comment, ; comment
    .org 0x1000          set the base address (before any instruction)
    .name my_routine     set the program name
    .word ADDR, VALUE    declare an initialised data word
    label:               bind a label
    add r1, r2, r3
    lw  r4, 8(r5)
    beq r1, r0, label
    j   label            (or an absolute hex/decimal byte address)
    csrr r1, cycles

Register operands are ``r0`` ... ``r31`` (``zero`` aliases ``r0``).
"""

from __future__ import annotations

from repro.errors import AssemblyError, EncodingError
from repro.isa.builder import AsmBuilder
from repro.isa.encoding import encode
from repro.isa.instructions import (
    OPERANDS,
    SPECS,
    Csr,
    Format,
    Instruction,
    Mnemonic,
)
from repro.isa.program import Program

_MNEMONICS = {m.value: m for m in Mnemonic}
_CSRS = {c.name.lower(): c for c in Csr}


def assemble(source: str, base_address: int | None = None) -> Program:
    """Assemble assembly-language ``source`` into a :class:`Program`."""
    lines = source.splitlines()
    statements = []
    org = 0
    name = "program"
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not text:
            continue
        if text.startswith(".org"):
            if statements:
                raise AssemblyError(".org must precede all instructions", lineno)
            org = _parse_int(text.split(None, 1)[1], lineno)
            continue
        if text.startswith(".name"):
            name = text.split(None, 1)[1].strip()
            continue
        statements.append((lineno, text))
    if base_address is not None:
        org = base_address

    builder = AsmBuilder(base_address=org, name=name)
    for lineno, text in statements:
        _assemble_statement(builder, text, lineno)
    try:
        return builder.build()
    except AssemblyError as exc:
        raise AssemblyError(str(exc)) from exc


def _assemble_statement(builder: AsmBuilder, text: str, lineno: int) -> None:
    while ":" in text.split()[0] if text else False:
        label, _, rest = text.partition(":")
        label = label.strip()
        if not label.isidentifier():
            raise AssemblyError(f"bad label {label!r}", lineno)
        builder.label(label)
        text = rest.strip()
        if not text:
            return
    if text.startswith(".word"):
        args = text[len(".word"):].split(",")
        if len(args) != 2:
            raise AssemblyError(".word needs ADDRESS, VALUE", lineno)
        builder.data_word(_parse_int(args[0], lineno), _parse_int(args[1], lineno))
        return
    parts = text.split(None, 1)
    name = parts[0].lower()
    operands = [op.strip() for op in parts[1].split(",")] if len(parts) > 1 else []
    if name == "li":
        # Pseudo-instruction: expands to ADDI or LUI+ORI.
        if len(operands) != 2:
            raise AssemblyError("li expects REGISTER, VALUE", lineno)
        builder.li(_reg(operands[0], lineno), _parse_int(operands[1], lineno))
        return
    mnemonic = _MNEMONICS.get(name)
    if mnemonic is None:
        raise AssemblyError(f"unknown mnemonic {parts[0]!r}", lineno)
    _emit(builder, mnemonic, operands, lineno)


def _emit(
    builder: AsmBuilder, mnemonic: Mnemonic, operands: list[str], lineno: int
) -> None:
    fmt = SPECS[mnemonic].format
    kinds = OPERANDS[fmt]
    if len(operands) != len(kinds):
        raise AssemblyError(
            f"{mnemonic.value} expects {len(kinds)} operand(s), got {len(operands)}",
            lineno,
        )
    fields: dict = {}
    for kind, text in zip(kinds, operands):
        fields.update(_PARSE[kind](text, lineno))
    if fmt is Format.JUMP and "imm" in fields:
        # Written as a byte address, encoded as a word address.
        if fields["imm"] % 4:
            raise AssemblyError(
                f"jump target {fields['imm']:#x} is not word-aligned", lineno
            )
        fields["imm"] //= 4
    instr = Instruction(mnemonic, **fields)
    if instr.label:
        builder.emit_to_label(instr)
        return
    # Reject at the line what the encoder would reject at build time.
    try:
        encode(instr)
    except EncodingError as exc:
        raise AssemblyError(str(exc), lineno) from None
    builder.emit(instr)


def _reg(text: str, lineno: int) -> int:
    text = text.strip().lower()
    if text == "zero":
        return 0
    if text.startswith("r") and text[1:].isdigit():
        number = int(text[1:])
        if 0 <= number <= 31:
            return number
    raise AssemblyError(f"bad register {text!r}", lineno)


def _csr(text: str, lineno: int) -> dict:
    csr = _CSRS.get(text.strip().lower())
    if csr is None:
        raise AssemblyError(f"unknown CSR {text!r}", lineno)
    return {"csr": int(csr)}


def _mem_operand(text: str, lineno: int) -> dict:
    text = text.strip()
    if not text.endswith(")") or "(" not in text:
        raise AssemblyError(f"bad memory operand {text!r}", lineno)
    offset_text, _, base_text = text[:-1].partition("(")
    offset = _parse_int(offset_text, lineno) if offset_text.strip() else 0
    return {"imm": offset, "rs1": _reg(base_text, lineno)}


def _target(text: str, lineno: int) -> dict:
    if _looks_numeric(text):
        return {"imm": _parse_int(text, lineno)}
    return {"label": text}


def _parse_int(text: str, lineno: int) -> int:
    try:
        return int(text.strip(), 0)
    except ValueError as exc:
        raise AssemblyError(f"bad integer {text!r}", lineno) from exc


def _looks_numeric(text: str) -> bool:
    text = text.strip()
    if text.startswith(("-", "+")):
        text = text[1:]
    return text[:2].lower() == "0x" or text.isdigit()


#: One parser per operand kind of ``OPERANDS``: operand text -> fields.
_PARSE = {
    "rd": lambda text, lineno: {"rd": _reg(text, lineno)},
    "rs1": lambda text, lineno: {"rs1": _reg(text, lineno)},
    "rs2": lambda text, lineno: {"rs2": _reg(text, lineno)},
    "imm": lambda text, lineno: {"imm": _parse_int(text, lineno)},
    "imm(rs1)": _mem_operand,
    "csr": _csr,
    "target": _target,
}
