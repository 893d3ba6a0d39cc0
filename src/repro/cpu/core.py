"""Dual-issue in-order pipelined processor core.

The pipeline is modelled with three inter-stage latches:

* ``exmem_latch`` — the packet issued one cycle ago (its ALU results sit
  on the EX/MEM boundary and feed the EX->EX forwarding paths; loads and
  stores perform their memory access from here);
* ``memwb_latch`` — the packet issued two cycles ago (MEM->EX paths);
* ``retire_latch`` — the packet writing the register file this cycle.

Issue happens after retirement within a cycle, so a consumer three or
more packets behind its producer reads the architectural register file —
no forwarding path is excited, which is the observable difference the
paper's Fig. 1 illustrates between a stall-free and a stalled stream.

ALU results are computed eagerly at issue (functionally identical to
forwarding), loads get their value when the memory system answers, and
every operand resolution is recorded in the :class:`ActivationLog` for
offline gate-level fault simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.alu import branch_taken, execute_alu, execute_alu64, execute_imm
from repro.cpu.fetch import FetchUnit
from repro.cpu.forwarding import Resolution, resolve_register
from repro.cpu.hazard import can_dual_issue, unresolved_producer
from repro.cpu.icu import Icu, IcuConfig
from repro.cpu.memunit import MemoryUnit
from repro.cpu.recording import (
    ActivationLog,
    ForwardingRecord,
    FwdSource,
    HdcuRecord,
    IcuRecord,
)
from repro.cpu.state import RegFile
from repro.cpu.uop import Uop
from repro.errors import SimulationError
from repro.isa.instructions import (
    CACHECFG_DCACHE_EN,
    CACHECFG_ICACHE_EN,
    CACHECFG_WRITE_ALLOCATE,
    Csr,
    Format,
    Instruction,
    Mnemonic,
)
from repro.mem.bus import SystemBus
from repro.mem.cache import Cache, CacheConfig
from repro.mem.memmap import MemoryMap, dtcm_base, itcm_base
from repro.mem.tcm import Tcm
from repro.telemetry.events import NULL_SINK, EventKind
from repro.utils.bitops import MASK32


@dataclass(frozen=True)
class CoreModel:
    """Static description of one processor model in the SoC.

    Cores A and B are the same 32-bit design put through different
    physical-design flows (hence different netlist seeds and fault
    lists); core C implements the 64-bit extended instruction set and a
    one-hot ICU status mapping (Section IV-A/IV-D).
    """

    name: str
    is64: bool = False
    icu_shared_status_bits: bool = True
    netlist_seed: int = 1
    frequency_hz: int = 180_000_000


CORE_MODEL_A = CoreModel(name="A", netlist_seed=0xA11CE)
CORE_MODEL_B = CoreModel(name="B", netlist_seed=0xB0B17)
CORE_MODEL_C = CoreModel(
    name="C", is64=True, icu_shared_status_bits=False, netlist_seed=0xC0DE5
)

#: Default cache geometry of the case-study SoC (Section IV-A).
ICACHE_CONFIG = CacheConfig(name="icache", size_bytes=8 << 10)
DCACHE_CONFIG = CacheConfig(name="dcache", size_bytes=4 << 10)


class Core:
    """One processor core wired to the shared bus."""

    def __init__(
        self,
        core_id: int,
        model: CoreModel,
        bus: SystemBus,
        memmap: MemoryMap,
        icache_config: CacheConfig = ICACHE_CONFIG,
        dcache_config: CacheConfig = DCACHE_CONFIG,
        tcm_size: int = 16 << 10,
    ):
        self.core_id = core_id
        self.model = model
        self.bus = bus
        self.memmap = memmap
        self.icache = Cache(icache_config)
        self.dcache = Cache(dcache_config)
        self.itcm = Tcm(f"itcm{core_id}", itcm_base(core_id), tcm_size)
        self.dtcm = Tcm(f"dtcm{core_id}", dtcm_base(core_id), tcm_size)
        self.fetch = FetchUnit(core_id, bus, memmap, self.icache, self.itcm)
        self.memunit = MemoryUnit(
            core_id, bus, memmap, self.dcache, self.itcm, self.dtcm
        )
        self.regfile = RegFile()
        self.icu = Icu(IcuConfig(shared_status_bits=model.icu_shared_status_bits))
        self.log = ActivationLog()
        self.recording = True
        self.keep_trace = False
        self.trace: list[Uop] = []
        self.stall_observable = False
        self.testwin = 0
        #: Armed behavioural fault (see repro.cpu.injection), or None.
        self.injected_fault = None
        # Pipeline latches.
        self.exmem_latch: list[Uop] = []
        self.memwb_latch: list[Uop] = []
        self.retire_latch: list[Uop] = []
        # Counters (the performance counters of the case-study cores).
        self.cycles = 0
        self.instret = 0
        self.ifstall = 0
        self.memstall = 0
        self.hazstall = 0
        self._seq = 0
        self.halted = False
        self.started = False
        #: Telemetry sink (no-op unless a TelemetrySession is attached).
        self.telemetry = NULL_SINK

    # ------------------------------------------------------------------
    # Control.
    # ------------------------------------------------------------------

    def reset(self, pc: int) -> None:
        """Point the core at ``pc`` and mark it runnable."""
        self.fetch.reset(pc)
        self.halted = False
        self.started = True
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.emit(
                EventKind.CORE_START,
                core=self.core_id,
                pc=pc,
                testwin=self.testwin,
            )

    def hard_reset(self, pc: int) -> None:
        """Forcibly restart at ``pc``, abandoning all in-flight work.

        Used by the test supervisor to re-enter a routine after a
        watchdog trip: pipeline latches are flushed and the memory unit
        cancels its access, but caches, TCMs and counters keep their
        state — re-convergence is the wrapper's job (it invalidates and
        re-warms the caches itself).
        """
        self.exmem_latch = []
        self.memwb_latch = []
        self.retire_latch = []
        self.memunit.cancel()
        self._set_testwin(0)
        self.reset(pc)

    @property
    def done(self) -> bool:
        """True once HALT has issued and the pipeline has drained."""
        return (
            self.halted
            and not self.exmem_latch
            and not self.memwb_latch
            and not self.retire_latch
            and not self.memunit.busy
        )

    @property
    def active(self) -> bool:
        """True while the core has work to do."""
        return self.started and not self.done

    # ------------------------------------------------------------------
    # Per-cycle operation (called once per SoC clock, after the bus).
    # ------------------------------------------------------------------

    def step(self, cycle: int) -> None:
        if not self.started or self.done:
            return
        self.cycles += 1
        self._retire(cycle)
        self._advance_mem(cycle)
        self._advance_ex(cycle)
        self._try_issue(cycle)
        self.fetch.step(cycle, self.halted)

    def _retire(self, cycle: int) -> None:
        retired = len(self.retire_latch)
        # Recognition runs before this cycle's events are delivered, so
        # an event starts counting younger retirements from the next
        # cycle (its own packet-mates are not "beyond" it).
        count_before = self.icu.recognised_count
        recognition = self.icu.step(cycle, retired)
        if recognition is not None and self.recording:
            vector = 0
            for event in recognition.events:
                vector |= 1 << int(event)
            self.log.icu.append(
                IcuRecord(
                    event_vector=vector,
                    merged=recognition.merged,
                    imprecision=recognition.imprecision,
                    status_bits=recognition.status_bits,
                    observable=bool(self.testwin & 1),
                    count_before=count_before,
                )
            )
        for uop in self.retire_latch:
            for reg in uop.dests:
                self.regfile.write(reg, uop.dest_value(reg))
            if uop.trap_event is not None:
                self.icu.raise_event(uop.trap_event, cycle)
            self.instret += 1
        self.retire_latch = []

    def _advance_mem(self, cycle: int) -> None:
        if not self.memwb_latch:
            return
        if self.memunit.poll(cycle):
            self.retire_latch = self.memwb_latch
            self.memwb_latch = []
            for uop in self.retire_latch:
                uop.wb_cycle = cycle
        else:
            self.memstall += 1

    def _advance_ex(self, cycle: int) -> None:
        if self.memwb_latch or not self.exmem_latch:
            return
        self.memwb_latch = self.exmem_latch
        self.exmem_latch = []
        for uop in self.memwb_latch:
            uop.mem_cycle = cycle
            if uop.is_load or uop.is_store:
                self.memunit.begin(uop, cycle)

    # ------------------------------------------------------------------
    # Issue.
    # ------------------------------------------------------------------

    def _try_issue(self, cycle: int) -> None:
        if self.exmem_latch or self.halted:
            return
        queue = self.fetch.queue
        if not queue:
            # The front end starved the issue stage: an IF stall.
            self.ifstall += 1
            return
        pc0, i0 = queue[0]
        if not self._operands_available(i0, cycle):
            return
        if i0.mnemonic is Mnemonic.SYNC and not self._sync_ready():
            self.hazstall += 1
            return
        queue.pop(0)
        first = self._issue_one(i0, pc0, slot=0, cycle=cycle)
        if first is None:
            return  # Redirecting jump: the packet ends here.
        self.exmem_latch.append(first)
        if (
            queue
            and can_dual_issue(i0, queue[0][1])
            and self._second_ready(queue[0][1])
        ):
            pc1, i1 = queue.pop(0)
            second = self._issue_one(i1, pc1, slot=1, cycle=cycle)
            if second is not None:
                self.exmem_latch.append(second)

    def _operands_available(self, instr: Instruction, cycle: int) -> bool:
        if unresolved_producer(instr, self.memwb_latch):
            # Load-use (producer load in the EX/MEM latch) with the
            # access itself on its fast path: a true HDCU stall.  A load
            # still waiting on the bus shows up as MEM stall cycles via
            # _advance_mem, so avoid double counting.
            if not self.memunit.waiting_on_bus:
                self.hazstall += 1
                if self.recording:
                    self._record_hdcu_stall(instr)
            return False
        return True

    def _second_ready(self, instr: Instruction) -> bool:
        return not unresolved_producer(instr, self.memwb_latch)

    def _sync_ready(self) -> bool:
        return (
            not self.memwb_latch
            and not self.retire_latch
            and not self.memunit.busy
        )

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _issue_one(
        self, instr: Instruction, pc: int, slot: int, cycle: int
    ) -> Uop | None:
        """Execute ``instr`` eagerly and return its uop (None for taken
        jumps that produce no writeback)."""
        spec = instr.spec
        if spec.is_64bit and not self.model.is64:
            raise SimulationError(
                f"core {self.model.name} cannot execute {instr.mnemonic.value} "
                "(64-bit extension is core C only)"
            )
        uop = Uop(
            seq=self._next_seq(),
            pc=pc,
            instr=instr,
            slot=slot,
            dests=instr.dest_regs(),
            issue_cycle=cycle,
        )
        if self.keep_trace:
            self.trace.append(uop)
        fmt = spec.format
        if fmt is Format.R3:
            if spec.is_64bit:
                v1 = self._resolve_wide(instr.rs1, uop, slot, 0)
                v2 = self._resolve_wide(instr.rs2, uop, slot, 1)
                uop.result = execute_alu64(instr.mnemonic, v1, v2)
                uop.is64 = True
            else:
                v1 = self._resolve(instr.rs1, uop, slot, 0)
                v2 = self._resolve(instr.rs2, uop, slot, 1)
                uop.result, uop.trap_event = execute_alu(instr.mnemonic, v1, v2)
        elif fmt is Format.I:
            v1 = self._resolve(instr.rs1, uop, slot, 0)
            uop.result = execute_imm(instr.mnemonic, v1, instr.imm)
        elif fmt is Format.LUI:
            uop.result = (instr.imm << 12) & MASK32
        elif fmt is Format.LOAD:
            base = self._resolve(instr.rs1, uop, slot, 0)
            uop.is_load = True
            uop.result_ready = False
            uop.mem_address = (base + instr.imm) & MASK32
            uop.mem_width = 4 if instr.mnemonic is Mnemonic.LW else 1
        elif fmt is Format.STORE:
            base = self._resolve(instr.rs1, uop, slot, 0)
            data = self._resolve(instr.rs2, uop, slot, 1)
            uop.is_store = True
            uop.mem_address = (base + instr.imm) & MASK32
            uop.mem_width = 4 if instr.mnemonic is Mnemonic.SW else 1
            uop.store_value = data if uop.mem_width == 4 else data & 0xFF
        elif fmt is Format.BRANCH:
            v1 = self._resolve(instr.rs1, uop, slot, 0)
            v2 = self._resolve(instr.rs2, uop, slot, 1)
            if branch_taken(instr.mnemonic, v1, v2):
                self.fetch.redirect((pc + 4 * instr.imm) & MASK32)
        elif fmt is Format.JUMP:
            if instr.mnemonic is Mnemonic.JAL:
                uop.result = (pc + 4) & MASK32
            self.fetch.redirect(4 * instr.imm)
        elif fmt is Format.JR:
            target = self._resolve(instr.rs1, uop, slot, 0)
            self.fetch.redirect(target & ~3)
        elif instr.mnemonic is Mnemonic.CSRR:
            uop.result = self._csr_read(instr.csr)
        elif instr.mnemonic is Mnemonic.CSRW:
            v1 = self._resolve(instr.rs1, uop, slot, 0)
            self._csr_write(instr.csr, v1)
        elif instr.mnemonic is Mnemonic.HALT:
            self.halted = True
            telemetry = self.telemetry
            if telemetry.enabled:
                telemetry.emit(EventKind.CORE_HALT, core=self.core_id, pc=pc)
        elif instr.mnemonic is Mnemonic.ICINV:
            self.icache.invalidate_all()
        elif instr.mnemonic is Mnemonic.DCINV:
            self.dcache.invalidate_all()
        # NOP and SYNC have no effect at this point.
        return uop

    # ------------------------------------------------------------------
    # Operand resolution + recording.
    # ------------------------------------------------------------------

    def _resolve(self, reg: int, uop: Uop, slot: int, operand: int) -> int:
        res = resolve_register(
            reg, self.memwb_latch, self.retire_latch, self.regfile
        )
        if not res.ready:  # pragma: no cover - guarded by unresolved_producer
            raise SimulationError(f"issued {uop.instr} with unresolved r{reg}")
        uop.fwd_selects.append(res.select)
        if self.recording:
            self._record(reg, res, slot, operand, width=32, high=None)
        return self._apply_injection(slot, operand, res)

    def _resolve_wide(self, reg: int, uop: Uop, slot: int, operand: int) -> int:
        low = resolve_register(
            reg, self.memwb_latch, self.retire_latch, self.regfile
        )
        high = resolve_register(
            reg + 1, self.memwb_latch, self.retire_latch, self.regfile
        )
        if not (low.ready and high.ready):  # pragma: no cover
            raise SimulationError(f"issued {uop.instr} with unresolved pair r{reg}")
        uop.fwd_selects.append(low.select)
        if self.recording:
            self._record(reg, low, slot, operand, width=64, high=high)
        return low.value | (high.value << 32)

    def _apply_injection(self, slot: int, operand: int, res: Resolution) -> int:
        """Corrupt the resolved operand according to the armed fault.

        Only the value delivered to execution changes; the activation
        record keeps the fault-free view (fault grading always runs
        against the fault-free logic simulation, as in the paper's flow).
        """
        fault = self.injected_fault
        if fault is None:
            return res.value
        if hasattr(fault, "apply_resolution"):
            return fault.apply_resolution(slot, operand, res)
        return fault.apply(slot, operand, res.select, res.value)

    def _record(
        self,
        reg: int,
        res: Resolution,
        slot: int,
        operand: int,
        width: int,
        high: Resolution | None,
    ) -> None:
        observable = bool(self.testwin & 1)
        if width == 64 and high is not None:
            candidates = tuple(
                lo | (hi << 32)
                for lo, hi in zip(res.candidates, high.candidates)
            )
            valid_mask = res.valid_mask
        else:
            candidates = res.candidates
            valid_mask = res.valid_mask
        self.log.forwarding.append(
            ForwardingRecord(
                slot=slot,
                operand=operand,
                select=res.select,
                candidates=candidates,
                valid_mask=valid_mask,
                width=width,
                observable=observable,
                observable_high=bool(self.testwin & 2),
            )
        )
        chosen = candidates[int(res.select)]
        flip_mask = 0
        for source in range(5):
            if source != int(res.select) and candidates[source] != chosen:
                flip_mask |= 1 << source
        producer_regs, producer_valid, producer_load_mask = (
            self._producer_summary()
        )
        self.log.hdcu.append(
            HdcuRecord(
                consumer_reg=reg,
                producer_regs=producer_regs,
                producer_valid=producer_valid,
                select=res.select,
                stall=False,
                flip_visible_mask=flip_mask,
                observable=observable,
                stall_observable=self.stall_observable and observable,
                slot=slot,
                operand=operand,
                producer_load_mask=producer_load_mask,
            )
        )

    def _record_hdcu_stall(self, instr: Instruction) -> None:
        # Record the register that is actually blocked (the one produced
        # by the unready load), so the netlist's comparators match.
        blocked = 0
        for reg in instr.source_regs():
            for latch in (self.memwb_latch, self.retire_latch):
                for uop in latch:
                    if not uop.result_ready and reg in uop.dests:
                        blocked = reg
        producer_regs, producer_valid, producer_load_mask = (
            self._producer_summary()
        )
        self.log.hdcu.append(
            HdcuRecord(
                consumer_reg=blocked,
                producer_regs=producer_regs,
                producer_valid=producer_valid,
                select=FwdSource.RF,
                stall=True,
                flip_visible_mask=0,
                observable=bool(self.testwin & 1),
                stall_observable=self.stall_observable and bool(self.testwin & 1),
                producer_load_mask=producer_load_mask,
            )
        )

    def _producer_summary(self) -> tuple[tuple[int, int, int, int], int, int]:
        """``(producer_regs, producer_valid, producer_load_mask)`` in one
        scan of the MEM/WB and retire latches.

        Position ``2 * latch + slot`` names one producer: its first
        destination register (the first writing uop of that slot), a
        valid bit when such a uop exists, and a load bit when a uop of
        that slot is a load whose result is not ready yet.
        """
        regs = [0, 0, 0, 0]
        valid = 0
        loads = 0
        for base, latch in ((0, self.memwb_latch), (2, self.retire_latch)):
            for uop in latch:
                index = base + uop.slot
                bit = 1 << index
                if uop.dests and not valid & bit:
                    regs[index] = uop.dests[0]
                    valid |= bit
                if uop.is_load and not uop.result_ready:
                    loads |= bit
        return tuple(regs), valid, loads

    # ------------------------------------------------------------------
    # CSRs.
    # ------------------------------------------------------------------

    def _csr_read(self, csr: int) -> int:
        csr = Csr(csr)
        if csr is Csr.CYCLES:
            return self.cycles & MASK32
        if csr is Csr.INSTRET:
            return self.instret & MASK32
        if csr is Csr.IFSTALL:
            return self.ifstall & MASK32
        if csr is Csr.MEMSTALL:
            return self.memstall & MASK32
        if csr is Csr.HAZSTALL:
            return self.hazstall & MASK32
        if csr is Csr.COREID:
            return self.core_id
        if csr is Csr.ICU_STATUS:
            return self.icu.read_status()
        if csr is Csr.ICU_IMPREC:
            return self.icu.read_imprecision()
        if csr is Csr.ICU_PEND:
            return self.icu.pending_vector
        if csr is Csr.ICU_COUNT:
            return self.icu.read_count()
        if csr is Csr.CACHECFG:
            value = 0
            if self.fetch.icache_enabled:
                value |= CACHECFG_ICACHE_EN
            if self.memunit.dcache_enabled:
                value |= CACHECFG_DCACHE_EN
            if self.dcache.write_allocate:
                value |= CACHECFG_WRITE_ALLOCATE
            return value
        if csr is Csr.TESTWIN:
            return self.testwin
        return 0

    def _csr_write(self, csr: int, value: int) -> None:
        csr = Csr(csr)
        if csr is Csr.CACHECFG:
            self.fetch.icache_enabled = bool(value & CACHECFG_ICACHE_EN)
            self.memunit.dcache_enabled = bool(value & CACHECFG_DCACHE_EN)
            self.dcache.write_allocate = bool(value & CACHECFG_WRITE_ALLOCATE)
        elif csr is Csr.ICU_ACK:
            self.icu.acknowledge()
        elif csr is Csr.TESTWIN:
            self._set_testwin(value & 3)
        # Other CSRs are read-only; writes are ignored like real status
        # registers.

    def _set_testwin(self, value: int) -> None:
        prev = self.testwin
        self.testwin = value
        if value != prev:
            telemetry = self.telemetry
            if telemetry.enabled:
                telemetry.emit(
                    EventKind.CORE_TESTWIN,
                    core=self.core_id,
                    value=value,
                    prev=prev,
                )
