"""Programmatic assembly builder.

Self-test routine generators construct their instruction streams through
:class:`AsmBuilder`, which handles label resolution, long-range branch
expansion and constant materialisation.  Branch immediates are *word*
offsets relative to the branch instruction itself; ``J``/``JAL`` carry
absolute word addresses, so a program built at one base address must be
re-built (not byte-copied) to move it — which is exactly what the SoC
loader does when sweeping code-position scenarios.
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import AssemblyError
from repro.isa.encoding import IMM10_MAX, IMM10_MIN, IMM15_MAX, IMM15_MIN
from repro.isa.instructions import Csr, Format, Instruction, Mnemonic
from repro.isa.program import Program
from repro.utils.bitops import to_signed, to_unsigned

#: Condition inversion used when a short branch must be expanded to a
#: branch-over-jump pair.
_INVERTED: dict[Mnemonic, Mnemonic] = {
    Mnemonic.BEQ: Mnemonic.BNE,
    Mnemonic.BNE: Mnemonic.BEQ,
    Mnemonic.BLT: Mnemonic.BGE,
    Mnemonic.BGE: Mnemonic.BLT,
    Mnemonic.BLTU: Mnemonic.BGEU,
    Mnemonic.BGEU: Mnemonic.BLTU,
}


class AsmBuilder:
    """Accumulates instructions and resolves labels into a :class:`Program`."""

    def __init__(self, base_address: int = 0, name: str = "program"):
        if base_address % 4:
            raise AssemblyError(
                f"base address {base_address:#x} is not word-aligned"
            )
        self.base_address = base_address
        self.name = name
        self._code: list[Instruction] = []
        self._labels: dict[str, int] = {}
        #: Indices of emitted branches/jumps whose ``label`` is unresolved.
        self._pending: list[int] = []
        self._address_li: list[tuple[int, int, str]] = []
        self._data: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Core emission primitives.
    # ------------------------------------------------------------------

    def emit(self, instr: Instruction) -> int:
        """Append an instruction; return its index in the code stream."""
        self._code.append(instr)
        return len(self._code) - 1

    def emit_to_label(self, instr: Instruction) -> None:
        """Append a branch or jump to ``instr.label``; :meth:`build` sets ``imm``."""
        self._pending.append(self.emit(instr))

    def label(self, name: str) -> None:
        """Bind ``name`` to the address of the next emitted instruction."""
        if name in self._labels:
            raise AssemblyError(f"duplicate label {name!r}")
        self._labels[name] = len(self._code)

    def here(self) -> int:
        """Byte address of the next instruction to be emitted."""
        return self.base_address + 4 * len(self._code)

    def data_word(self, address: int, value: int) -> None:
        """Declare an initialised 32-bit data word at an absolute address."""
        if address % 4:
            raise AssemblyError(f"data address {address:#x} not word-aligned")
        self._data[address] = value & 0xFFFF_FFFF

    @property
    def instruction_count(self) -> int:
        """Number of instructions emitted so far."""
        return len(self._code)

    # ------------------------------------------------------------------
    # Register-register ALU.
    # ------------------------------------------------------------------

    def _r3(self, m: Mnemonic, rd: int, rs1: int, rs2: int) -> None:
        self.emit(Instruction(m, rd=rd, rs1=rs1, rs2=rs2))

    def add(self, rd, rs1, rs2):
        self._r3(Mnemonic.ADD, rd, rs1, rs2)

    def sub(self, rd, rs1, rs2):
        self._r3(Mnemonic.SUB, rd, rs1, rs2)

    def and_(self, rd, rs1, rs2):
        self._r3(Mnemonic.AND, rd, rs1, rs2)

    def or_(self, rd, rs1, rs2):
        self._r3(Mnemonic.OR, rd, rs1, rs2)

    def xor(self, rd, rs1, rs2):
        self._r3(Mnemonic.XOR, rd, rs1, rs2)

    def nor(self, rd, rs1, rs2):
        self._r3(Mnemonic.NOR, rd, rs1, rs2)

    def slt(self, rd, rs1, rs2):
        self._r3(Mnemonic.SLT, rd, rs1, rs2)

    def sltu(self, rd, rs1, rs2):
        self._r3(Mnemonic.SLTU, rd, rs1, rs2)

    def sll(self, rd, rs1, rs2):
        self._r3(Mnemonic.SLL, rd, rs1, rs2)

    def srl(self, rd, rs1, rs2):
        self._r3(Mnemonic.SRL, rd, rs1, rs2)

    def sra(self, rd, rs1, rs2):
        self._r3(Mnemonic.SRA, rd, rs1, rs2)

    def mul(self, rd, rs1, rs2):
        self._r3(Mnemonic.MUL, rd, rs1, rs2)

    def mulh(self, rd, rs1, rs2):
        self._r3(Mnemonic.MULH, rd, rs1, rs2)

    def addo(self, rd, rs1, rs2):
        self._r3(Mnemonic.ADDO, rd, rs1, rs2)

    def subo(self, rd, rs1, rs2):
        self._r3(Mnemonic.SUBO, rd, rs1, rs2)

    def mulo(self, rd, rs1, rs2):
        self._r3(Mnemonic.MULO, rd, rs1, rs2)

    def satadd(self, rd, rs1, rs2):
        self._r3(Mnemonic.SATADD, rd, rs1, rs2)

    def divt(self, rd, rs1, rs2):
        self._r3(Mnemonic.DIVT, rd, rs1, rs2)

    def sllo(self, rd, rs1, rs2):
        self._r3(Mnemonic.SLLO, rd, rs1, rs2)

    def add64(self, rd, rs1, rs2):
        self._r3(Mnemonic.ADD64, rd, rs1, rs2)

    def sub64(self, rd, rs1, rs2):
        self._r3(Mnemonic.SUB64, rd, rs1, rs2)

    def and64(self, rd, rs1, rs2):
        self._r3(Mnemonic.AND64, rd, rs1, rs2)

    def or64(self, rd, rs1, rs2):
        self._r3(Mnemonic.OR64, rd, rs1, rs2)

    def xor64(self, rd, rs1, rs2):
        self._r3(Mnemonic.XOR64, rd, rs1, rs2)

    # ------------------------------------------------------------------
    # Immediates and constants.
    # ------------------------------------------------------------------

    def _imm(self, m: Mnemonic, rd: int, rs1: int, imm: int) -> None:
        if not IMM15_MIN <= imm <= IMM15_MAX:
            raise AssemblyError(f"{m.value} immediate {imm} out of range")
        self.emit(Instruction(m, rd=rd, rs1=rs1, imm=imm))

    def addi(self, rd, rs1, imm):
        self._imm(Mnemonic.ADDI, rd, rs1, imm)

    def andi(self, rd, rs1, imm):
        self._imm(Mnemonic.ANDI, rd, rs1, imm)

    def ori(self, rd, rs1, imm):
        self._imm(Mnemonic.ORI, rd, rs1, imm)

    def xori(self, rd, rs1, imm):
        self._imm(Mnemonic.XORI, rd, rs1, imm)

    def slti(self, rd, rs1, imm):
        self._imm(Mnemonic.SLTI, rd, rs1, imm)

    def slli(self, rd, rs1, imm):
        self._imm(Mnemonic.SLLI, rd, rs1, imm)

    def srli(self, rd, rs1, imm):
        self._imm(Mnemonic.SRLI, rd, rs1, imm)

    def srai(self, rd, rs1, imm):
        self._imm(Mnemonic.SRAI, rd, rs1, imm)

    def lui(self, rd: int, imm20: int) -> None:
        self.emit(Instruction(Mnemonic.LUI, rd=rd, imm=imm20))

    def li(self, rd: int, value: int) -> None:
        """Materialise an arbitrary 32-bit constant (1 or 2 instructions)."""
        value = to_unsigned(value, 32)
        signed = to_signed(value, 32)
        if IMM15_MIN <= signed <= IMM15_MAX:
            self.addi(rd, 0, signed)
            return
        self.lui(rd, value >> 12)
        low = value & 0xFFF
        if low:
            self.ori(rd, rd, low)

    def li_address(self, rd: int, label: str) -> None:
        """Materialise the absolute byte address of ``label``.

        Always expands to the two-instruction LUI+ORI form (the value is
        unknown until build time), e.g. for loading a return address or
        a jump-table entry.
        """
        index = self.emit(Instruction(Mnemonic.LUI, rd=rd, imm=0))
        self.emit(Instruction(Mnemonic.ORI, rd=rd, rs1=rd, imm=0))
        self._address_li.append((index, rd, label))

    # ------------------------------------------------------------------
    # Memory.
    # ------------------------------------------------------------------

    def lw(self, rd: int, offset: int, base: int) -> None:
        self.emit(Instruction(Mnemonic.LW, rd=rd, rs1=base, imm=offset))

    def lbu(self, rd: int, offset: int, base: int) -> None:
        self.emit(Instruction(Mnemonic.LBU, rd=rd, rs1=base, imm=offset))

    def tas(self, rd: int, offset: int, base: int) -> None:
        """Atomic test-and-set: rd <- M[base+offset]; M[base+offset] <- 1."""
        self.emit(Instruction(Mnemonic.TAS, rd=rd, rs1=base, imm=offset))

    def sw(self, rs2: int, offset: int, base: int) -> None:
        if not IMM10_MIN <= offset <= IMM10_MAX:
            raise AssemblyError(f"store offset {offset} out of range")
        self.emit(Instruction(Mnemonic.SW, rs1=base, rs2=rs2, imm=offset))

    def sb(self, rs2: int, offset: int, base: int) -> None:
        if not IMM10_MIN <= offset <= IMM10_MAX:
            raise AssemblyError(f"store offset {offset} out of range")
        self.emit(Instruction(Mnemonic.SB, rs1=base, rs2=rs2, imm=offset))

    # ------------------------------------------------------------------
    # Control flow.
    # ------------------------------------------------------------------

    def _branch(self, m: Mnemonic, rs1: int, rs2: int, label: str) -> None:
        self.emit_to_label(Instruction(m, rs1=rs1, rs2=rs2, label=label))

    def beq(self, rs1, rs2, label):
        self._branch(Mnemonic.BEQ, rs1, rs2, label)

    def bne(self, rs1, rs2, label):
        self._branch(Mnemonic.BNE, rs1, rs2, label)

    def blt(self, rs1, rs2, label):
        self._branch(Mnemonic.BLT, rs1, rs2, label)

    def bge(self, rs1, rs2, label):
        self._branch(Mnemonic.BGE, rs1, rs2, label)

    def bltu(self, rs1, rs2, label):
        self._branch(Mnemonic.BLTU, rs1, rs2, label)

    def bgeu(self, rs1, rs2, label):
        self._branch(Mnemonic.BGEU, rs1, rs2, label)

    def branch_far(self, m: Mnemonic, rs1: int, rs2: int, label: str) -> None:
        """Branch with unlimited range: inverted short branch over a jump."""
        inverted = _INVERTED.get(m)
        if inverted is None:
            raise AssemblyError(f"{m.value} is not a conditional branch")
        skip = f"__far_{len(self._code)}"
        self._branch(inverted, rs1, rs2, skip)
        self.j(label)
        self.label(skip)

    def j(self, label: str) -> None:
        self.emit_to_label(Instruction(Mnemonic.J, label=label))

    def jal(self, label: str) -> None:
        self.emit_to_label(Instruction(Mnemonic.JAL, label=label))

    def jr(self, rs1: int) -> None:
        self.emit(Instruction(Mnemonic.JR, rs1=rs1))

    # ------------------------------------------------------------------
    # System.
    # ------------------------------------------------------------------

    def csrr(self, rd: int, csr: Csr) -> None:
        self.emit(Instruction(Mnemonic.CSRR, rd=rd, csr=int(csr)))

    def csrw(self, csr: Csr, rs1: int) -> None:
        self.emit(Instruction(Mnemonic.CSRW, csr=int(csr), rs1=rs1))

    def nop(self, count: int = 1) -> None:
        for _ in range(count):
            self.emit(Instruction(Mnemonic.NOP))

    def halt(self):
        self.emit(Instruction(Mnemonic.HALT))

    def icinv(self):
        self.emit(Instruction(Mnemonic.ICINV))

    def dcinv(self):
        self.emit(Instruction(Mnemonic.DCINV))

    def sync(self):
        self.emit(Instruction(Mnemonic.SYNC))

    # ------------------------------------------------------------------
    # Finalisation.
    # ------------------------------------------------------------------

    def build(self) -> Program:
        """Resolve all labels and return the finished :class:`Program`."""
        code = list(self._code)
        for index in self._pending:
            instr = code[index]
            target = self._labels.get(instr.label)
            if target is None:
                raise AssemblyError(f"undefined label {instr.label!r}")
            if instr.spec.format is Format.BRANCH:
                offset = target - index
                if not IMM10_MIN <= offset <= IMM10_MAX:
                    raise AssemblyError(
                        f"branch to {instr.label!r} spans {offset} words; "
                        "use branch_far for long-range branches"
                    )
                code[index] = replace(instr, imm=offset)
            else:  # JUMP: an absolute word address
                code[index] = replace(instr, imm=self.base_address // 4 + target)
        for index, rd, label in self._address_li:
            target = self._labels.get(label)
            if target is None:
                raise AssemblyError(f"undefined label {label!r}")
            address = self.base_address + 4 * target
            code[index] = Instruction(Mnemonic.LUI, rd=rd, imm=address >> 12)
            code[index + 1] = Instruction(
                Mnemonic.ORI, rd=rd, rs1=rd, imm=address & 0xFFF
            )
        symbols = {
            name: self.base_address + 4 * index
            for name, index in self._labels.items()
        }
        return Program(
            code=code,
            base_address=self.base_address,
            data=dict(self._data),
            symbols=symbols,
            name=self.name,
        )
