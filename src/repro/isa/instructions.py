"""Instruction set of the modelled automotive cores.

The target SoC of the paper embeds three dual-issue in-order cores (two
32-bit, one with a 64-bit extended datapath).  This module defines the
ISA the simulator executes: a small RISC instruction set with

* the usual ALU / memory / branch instructions,
* *trapping* arithmetic instructions that raise synchronous **imprecise**
  interrupts through the Interrupt Control Unit (``ADDO``, ``SUBO``,
  ``MULO``, ``SATADD``, ``DIVT``, ``SLLO``),
* 64-bit register-pair instructions available only on core C
  (``ADD64`` ...), and
* system instructions for the self-test flow: CSR access (performance
  counters, ICU registers, cache configuration), cache invalidation and
  pipeline synchronisation.

Each mnemonic is described by an :class:`InstrSpec` (format, register
writes, structural class, trap event).  Each format's operands are
listed once, in :data:`OPERANDS`: the printer, the assembler, the
register reads and test-program generators all read that one table, and
the encoder and decoder read its bit-level twin,
``repro.isa.encoding.FIELDS``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

NUM_REGS = 32
LINK_REG = 31

#: Number of synchronous imprecise interrupt event lines entering the ICU.
NUM_EVENTS = 6


class Event(enum.IntEnum):
    """Synchronous imprecise interrupt sources (Section II / IV-D)."""

    OVF_ADD = 0
    OVF_SUB = 1
    OVF_MUL = 2
    SAT = 3
    DIV0 = 4
    SHIFTO = 5


class Csr(enum.IntEnum):
    """Control/status registers readable with ``CSRR`` (written with ``CSRW``)."""

    CYCLES = 0
    INSTRET = 1
    IFSTALL = 2
    MEMSTALL = 3
    HAZSTALL = 4
    COREID = 5
    ICU_STATUS = 6
    ICU_IMPREC = 7
    ICU_PEND = 8
    CACHECFG = 9
    ICU_ACK = 10
    ICU_COUNT = 11
    #: Test-window marker: routines write 1 while their signature is being
    #: accumulated (the *execution loop*) and 0 elsewhere (the *loading
    #: loop*).  Module-activation recorders use it as the observability
    #: window for fault simulation.
    TESTWIN = 12


#: CACHECFG bit assignments (written via ``CSRW CACHECFG``).
CACHECFG_ICACHE_EN = 1 << 0
CACHECFG_DCACHE_EN = 1 << 1
CACHECFG_WRITE_ALLOCATE = 1 << 2


class Format(enum.Enum):
    """Operand/encoding format of a mnemonic (operands: :data:`OPERANDS`)."""

    R3 = "r3"
    I = "i"  # noqa: E741 - conventional format name
    LUI = "lui"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    JUMP = "jump"
    JR = "jr"
    CSRR = "csrr"
    CSRW = "csrw"
    SYS = "sys"


#: Each format's operands in assembly order: the one operand layout the
#: printer, the assembler's parser and ``source_regs`` read (the bit
#: layout is ``repro.isa.encoding.FIELDS``).  ``rd``/``rs1``/``rs2`` are
#: registers, ``imm`` a signed or unsigned immediate, ``imm(rs1)`` a
#: base-plus-offset memory operand, ``csr`` a :class:`Csr` name and
#: ``target`` a label or number: a branch's word offset, or a jump's
#: absolute byte address.
OPERANDS: dict[Format, tuple[str, ...]] = {
    Format.R3: ("rd", "rs1", "rs2"),
    Format.I: ("rd", "rs1", "imm"),
    Format.LUI: ("rd", "imm"),
    Format.LOAD: ("rd", "imm(rs1)"),
    Format.STORE: ("rs2", "imm(rs1)"),
    Format.BRANCH: ("rs1", "rs2", "target"),
    Format.JUMP: ("target",),
    Format.JR: ("rs1",),
    Format.CSRR: ("rd", "csr"),
    Format.CSRW: ("csr", "rs1"),
    Format.SYS: (),
}

#: Register reads per format, counted from :data:`OPERANDS` once: every
#: format that reads ``rs2`` also reads ``rs1``, so the reads are a
#: prefix of ``(rs1, rs2)``.
_READS: dict[Format, int] = {
    fmt: sum(reg in op for op in operands for reg in ("rs1", "rs2"))
    for fmt, operands in OPERANDS.items()
}


class Mnemonic(enum.Enum):
    """All instruction mnemonics; the value doubles as assembly syntax."""

    # 32-bit ALU, register-register.
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOR = "nor"
    SLT = "slt"
    SLTU = "sltu"
    SLL = "sll"
    SRL = "srl"
    SRA = "sra"
    MUL = "mul"
    MULH = "mulh"
    # Trapping ALU (raise synchronous imprecise events).
    ADDO = "addo"
    SUBO = "subo"
    MULO = "mulo"
    SATADD = "satadd"
    DIVT = "divt"
    SLLO = "sllo"
    # 64-bit register-pair ALU (core C only).
    ADD64 = "add64"
    SUB64 = "sub64"
    AND64 = "and64"
    OR64 = "or64"
    XOR64 = "xor64"
    # ALU, register-immediate.
    ADDI = "addi"
    ANDI = "andi"
    ORI = "ori"
    XORI = "xori"
    SLTI = "slti"
    SLLI = "slli"
    SRLI = "srli"
    SRAI = "srai"
    LUI = "lui"
    # Memory.
    LW = "lw"
    LBU = "lbu"
    SW = "sw"
    SB = "sb"
    # Control flow.
    BEQ = "beq"
    BNE = "bne"
    BLT = "blt"
    BGE = "bge"
    BLTU = "bltu"
    BGEU = "bgeu"
    J = "j"
    JAL = "jal"
    JR = "jr"
    # System.
    CSRR = "csrr"
    CSRW = "csrw"
    NOP = "nop"
    HALT = "halt"
    ICINV = "icinv"
    DCINV = "dcinv"
    SYNC = "sync"
    #: Atomic test-and-set (reads the word, writes 1, in one bus
    #: transaction; always uncached).  The substrate for the
    #: decentralised run-once claiming of the [13]-style scheduler.
    TAS = "tas"


@dataclass(frozen=True)
class InstrSpec:
    """Static description of one mnemonic.

    Attributes:
        format: operand/encoding format.
        is_load / is_store: memory-class instruction (executes in pipe 0).
        is_mul: uses the multiplier unit (executes in pipe 0).
        is_branch: conditional branch or jump (must issue in slot 0).
        is_trap: may raise a synchronous imprecise interrupt event.
        event: the :class:`Event` raised when the trap condition holds.
        is_64bit: operates on register pairs; only legal on core C.
        is_system: CSR / cache-control / barrier class (issues alone).
        writes_rd: architecturally writes the ``rd`` field.
        is_atomic: indivisible read-modify-write (bypasses the D-cache).
    """

    format: Format
    is_load: bool = False
    is_store: bool = False
    is_mul: bool = False
    is_branch: bool = False
    is_trap: bool = False
    event: Event | None = None
    is_64bit: bool = False
    is_system: bool = False
    writes_rd: bool = False
    is_atomic: bool = False

    @property
    def is_mem(self) -> bool:
        """True for loads and stores."""
        return self.is_load or self.is_store


def _r3(**kw) -> InstrSpec:
    return InstrSpec(format=Format.R3, writes_rd=True, **kw)


def _imm(**kw) -> InstrSpec:
    return InstrSpec(format=Format.I, writes_rd=True, **kw)


SPECS: dict[Mnemonic, InstrSpec] = {
    Mnemonic.ADD: _r3(),
    Mnemonic.SUB: _r3(),
    Mnemonic.AND: _r3(),
    Mnemonic.OR: _r3(),
    Mnemonic.XOR: _r3(),
    Mnemonic.NOR: _r3(),
    Mnemonic.SLT: _r3(),
    Mnemonic.SLTU: _r3(),
    Mnemonic.SLL: _r3(),
    Mnemonic.SRL: _r3(),
    Mnemonic.SRA: _r3(),
    Mnemonic.MUL: _r3(is_mul=True),
    Mnemonic.MULH: _r3(is_mul=True),
    Mnemonic.ADDO: _r3(is_trap=True, event=Event.OVF_ADD),
    Mnemonic.SUBO: _r3(is_trap=True, event=Event.OVF_SUB),
    Mnemonic.MULO: _r3(is_mul=True, is_trap=True, event=Event.OVF_MUL),
    Mnemonic.SATADD: _r3(is_trap=True, event=Event.SAT),
    Mnemonic.DIVT: _r3(is_mul=True, is_trap=True, event=Event.DIV0),
    Mnemonic.SLLO: _r3(is_trap=True, event=Event.SHIFTO),
    Mnemonic.ADD64: _r3(is_64bit=True),
    Mnemonic.SUB64: _r3(is_64bit=True),
    Mnemonic.AND64: _r3(is_64bit=True),
    Mnemonic.OR64: _r3(is_64bit=True),
    Mnemonic.XOR64: _r3(is_64bit=True),
    Mnemonic.ADDI: _imm(),
    Mnemonic.ANDI: _imm(),
    Mnemonic.ORI: _imm(),
    Mnemonic.XORI: _imm(),
    Mnemonic.SLTI: _imm(),
    Mnemonic.SLLI: _imm(),
    Mnemonic.SRLI: _imm(),
    Mnemonic.SRAI: _imm(),
    Mnemonic.LUI: InstrSpec(format=Format.LUI, writes_rd=True),
    Mnemonic.LW: InstrSpec(format=Format.LOAD, is_load=True, writes_rd=True),
    Mnemonic.LBU: InstrSpec(format=Format.LOAD, is_load=True, writes_rd=True),
    Mnemonic.SW: InstrSpec(format=Format.STORE, is_store=True),
    Mnemonic.SB: InstrSpec(format=Format.STORE, is_store=True),
    Mnemonic.BEQ: InstrSpec(format=Format.BRANCH, is_branch=True),
    Mnemonic.BNE: InstrSpec(format=Format.BRANCH, is_branch=True),
    Mnemonic.BLT: InstrSpec(format=Format.BRANCH, is_branch=True),
    Mnemonic.BGE: InstrSpec(format=Format.BRANCH, is_branch=True),
    Mnemonic.BLTU: InstrSpec(format=Format.BRANCH, is_branch=True),
    Mnemonic.BGEU: InstrSpec(format=Format.BRANCH, is_branch=True),
    Mnemonic.J: InstrSpec(format=Format.JUMP, is_branch=True),
    Mnemonic.JAL: InstrSpec(format=Format.JUMP, is_branch=True, writes_rd=True),
    Mnemonic.JR: InstrSpec(format=Format.JR, is_branch=True),
    Mnemonic.CSRR: InstrSpec(format=Format.CSRR, is_system=True, writes_rd=True),
    Mnemonic.CSRW: InstrSpec(format=Format.CSRW, is_system=True),
    Mnemonic.NOP: InstrSpec(format=Format.SYS),
    Mnemonic.HALT: InstrSpec(format=Format.SYS, is_system=True),
    Mnemonic.ICINV: InstrSpec(format=Format.SYS, is_system=True),
    Mnemonic.DCINV: InstrSpec(format=Format.SYS, is_system=True),
    Mnemonic.SYNC: InstrSpec(format=Format.SYS, is_system=True),
    Mnemonic.TAS: InstrSpec(
        format=Format.LOAD, is_load=True, writes_rd=True, is_atomic=True
    ),
}


class _decoded:
    """Write-once non-data descriptor: computes a decoded property on
    first access and stores it in the instance ``__dict__``, where later
    lookups find it before the descriptor.

    Instructions are immutable and fetched words share one decoded
    instance, so each distinct instruction word is decoded once.  Unlike
    ``functools.cached_property`` (which locks on every first access on
    Python 3.10/3.11) this costs nothing beyond the computation.
    """

    def __init__(self, compute):
        self.compute = compute
        self.name = compute.__name__
        self.__doc__ = compute.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = self.compute(instance)
        instance.__dict__[self.name] = value
        return value


@dataclass(frozen=True)
class Instruction:
    """One decoded (or about-to-be-encoded) instruction.

    ``imm`` is the signed immediate / branch word-offset / absolute jump
    word-address depending on format.  ``label`` is an optional symbolic
    target kept for assembly listings; the encoder only uses ``imm``.
    """

    mnemonic: Mnemonic
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0
    csr: int = 0
    label: str | None = field(default=None, compare=False)

    @_decoded
    def spec(self) -> InstrSpec:
        """The static :class:`InstrSpec` of this mnemonic."""
        return SPECS[self.mnemonic]

    @_decoded
    def _source_regs(self) -> tuple[int, ...]:
        if self.spec.is_64bit:
            return (self.rs1, self.rs1 + 1, self.rs2, self.rs2 + 1)
        return (self.rs1, self.rs2)[: _READS[self.spec.format]]

    @_decoded
    def _dest_regs(self) -> tuple[int, ...]:
        spec = self.spec
        if not spec.writes_rd:
            return ()
        rd = LINK_REG if self.mnemonic is Mnemonic.JAL else self.rd
        if rd == 0:
            return ()
        if spec.is_64bit:
            return (rd, rd + 1)
        return (rd,)

    def source_regs(self) -> tuple[int, ...]:
        """Architectural registers read, in operand order (with 64-bit pairs)."""
        return self._source_regs

    def dest_regs(self) -> tuple[int, ...]:
        """Architectural registers written (register pair on 64-bit ops)."""
        return self._dest_regs

    def __str__(self) -> str:
        return format_instruction(self)


def _target(instr: Instruction) -> str:
    if instr.label:
        return instr.label
    if instr.spec.format is Format.JUMP:
        return hex(instr.imm * 4)  # absolute word address, as a byte address
    return str(instr.imm)  # branch word offset


#: One printer per operand kind of :data:`OPERANDS`.
_PRINT = {
    "rd": lambda instr: f"r{instr.rd}",
    "rs1": lambda instr: f"r{instr.rs1}",
    "rs2": lambda instr: f"r{instr.rs2}",
    "imm": lambda instr: str(instr.imm),
    "imm(rs1)": lambda instr: f"{instr.imm}(r{instr.rs1})",
    "csr": lambda instr: Csr(instr.csr).name.lower(),
    "target": _target,
}


def format_instruction(instr: Instruction) -> str:
    """Render an instruction in the assembler's text syntax."""
    operands = ", ".join(_PRINT[op](instr) for op in OPERANDS[instr.spec.format])
    name = instr.mnemonic.value
    return f"{name} {operands}" if operands else name


def nop() -> Instruction:
    """Convenience constructor for a NOP."""
    return Instruction(Mnemonic.NOP)
