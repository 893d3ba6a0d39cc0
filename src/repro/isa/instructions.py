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
reads/writes, structural class, trap event) so the decoder, assembler,
encoder and test-program generators all share one source of truth.
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
    """Operand/encoding format of a mnemonic."""

    R3 = "r3"  # rd, rs1, rs2
    I = "i"  # rd, rs1, imm15  # noqa: E741 - conventional format name
    LUI = "lui"  # rd, imm20
    LOAD = "load"  # rd, imm15(rs1)
    STORE = "store"  # rs2, imm10(rs1)
    BRANCH = "branch"  # rs1, rs2, imm10 (word offset)
    JUMP = "jump"  # imm25 (absolute word address)
    JR = "jr"  # rs1
    CSRR = "csrr"  # rd, csr
    CSRW = "csrw"  # csr, rs1
    SYS = "sys"  # no operands


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
        spec = self.spec
        fmt = spec.format
        if fmt is Format.R3:
            if spec.is_64bit:
                return (self.rs1, self.rs1 + 1, self.rs2, self.rs2 + 1)
            return (self.rs1, self.rs2)
        if fmt is Format.I:
            return (self.rs1,)
        if fmt is Format.LOAD:
            return (self.rs1,)
        if fmt is Format.STORE:
            return (self.rs1, self.rs2)
        if fmt is Format.BRANCH:
            return (self.rs1, self.rs2)
        if fmt is Format.JR:
            return (self.rs1,)
        if fmt is Format.CSRW:
            return (self.rs1,)
        return ()

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

    def forwarding_operands(self) -> tuple[int, ...]:
        """Registers whose values feed the EX-stage operand muxes.

        These are the consumers of the forwarding network: ALU operands,
        the load/store base register and the store data register.  Branch
        comparisons resolve in EX too.  64-bit operations consume the low
        word through operand port 1/2 and the high word through the same
        port one "lane" wider; the recorder treats the pair as one wide
        operand.
        """
        spec = self.spec
        fmt = spec.format
        if fmt is Format.R3:
            return (self.rs1, self.rs2)
        if fmt in (Format.I, Format.LOAD, Format.JR, Format.CSRW):
            return (self.rs1,)
        if fmt in (Format.STORE, Format.BRANCH):
            return (self.rs1, self.rs2)
        return ()

    def __str__(self) -> str:
        return format_instruction(self)


def format_instruction(instr: Instruction) -> str:
    """Render an instruction in the assembler's text syntax."""
    m = instr.mnemonic
    fmt = instr.spec.format
    name = m.value
    if fmt is Format.R3:
        return f"{name} r{instr.rd}, r{instr.rs1}, r{instr.rs2}"
    if fmt is Format.I:
        return f"{name} r{instr.rd}, r{instr.rs1}, {instr.imm}"
    if fmt is Format.LUI:
        return f"{name} r{instr.rd}, {instr.imm}"
    if fmt is Format.LOAD:
        return f"{name} r{instr.rd}, {instr.imm}(r{instr.rs1})"
    if fmt is Format.STORE:
        return f"{name} r{instr.rs2}, {instr.imm}(r{instr.rs1})"
    if fmt is Format.BRANCH:
        target = instr.label if instr.label else str(instr.imm)
        return f"{name} r{instr.rs1}, r{instr.rs2}, {target}"
    if fmt is Format.JUMP:
        target = instr.label if instr.label else hex(instr.imm * 4)
        return f"{name} {target}"
    if fmt is Format.JR:
        return f"{name} r{instr.rs1}"
    if fmt is Format.CSRR:
        return f"{name} r{instr.rd}, {Csr(instr.csr).name.lower()}"
    if fmt is Format.CSRW:
        return f"{name} {Csr(instr.csr).name.lower()}, r{instr.rs1}"
    return name


def nop() -> Instruction:
    """Convenience constructor for a NOP."""
    return Instruction(Mnemonic.NOP)
