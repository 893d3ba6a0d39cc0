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
from repro.cpu.forwarding import LatchView, Resolution
from repro.cpu.hazard import can_dual_issue
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
from repro.mem.bus import SystemBus, Transaction
from repro.mem.cache import Cache, CacheConfig
from repro.mem.memmap import dtcm_base, itcm_base
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
        icache_config: CacheConfig,
        dcache_config: CacheConfig,
        tcm_size: int,
    ):
        self.core_id = core_id
        self.model = model
        self.bus = bus
        self.icache = Cache(icache_config)
        self.dcache = Cache(dcache_config)
        self.itcm = Tcm(f"itcm{core_id}", itcm_base(core_id), tcm_size)
        self.dtcm = Tcm(f"dtcm{core_id}", dtcm_base(core_id), tcm_size)
        self.fetch = FetchUnit(core_id, bus, self.icache, self.itcm)
        self.memunit = MemoryUnit(core_id, bus, self.dcache, self.itcm, self.dtcm)
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
        self.fetch.redirect(pc)
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
        watchdog trip: the pipeline is flushed (see :meth:`_flush`), but
        caches, TCMs and counters keep their state — re-convergence is
        the wrapper's job (it invalidates and re-warms the caches
        itself).
        """
        self._flush()
        self._set_testwin(0)
        self.reset(pc)  # The redirect also clears the starved marker.

    def park(self, pc: int) -> None:
        """Flush the pipeline, point fetch at ``pc`` and halt.

        Used by the test supervisor to keep a quarantined routine's core
        off the bus for the rest of the session; the redirect drops any
        in-flight fetch and clears the starved marker.
        """
        self._flush()
        self.fetch.redirect(pc)
        self.halted = True

    def _flush(self) -> None:
        """Abandon all in-flight work: the pipeline latches are emptied
        and the memory unit cancels its access."""
        self.exmem_latch = []
        self.memwb_latch = []
        self.retire_latch = []
        self.memunit.cancel()

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
        fetch = self.fetch
        starved_on = fetch.starved_on
        if starved_on is not None:
            if not starved_on.done:
                # Starved (see _starved_on): the full step would change
                # nothing but these two counters.
                self.cycles += 1
                self.ifstall += 1
                return
            fetch.starved_on = None
        if not self.started or self.done:
            return
        self.cycles += 1
        self._retire(cycle)
        self._advance_mem(cycle)
        self._advance_ex(cycle)
        self._try_issue(cycle)
        fetch.step(cycle, self.halted)
        fetch.starved_on = self._starved_on()

    def _starved_on(self) -> Transaction | None:
        """The fetch this core is starved on, or None.

        A core is starved when its latches and issue queue are empty, it
        is not halted, its memory unit is idle, its ICU has no pending
        event and its fetch unit can neither collect nor launch a fetch
        (:meth:`FetchUnit.blocked_on`).  Until that fetch is done a full
        step only retires nothing, advances nothing, counts an IF stall
        and finds the fetch unit blocked again; nothing else reaches
        into the core meanwhile except through a redirect (reset, hard
        reset, supervisor parking), which clears the marker.
        """
        if (
            self.halted
            or self.exmem_latch
            or self.memwb_latch
            or self.retire_latch
            or self.fetch.queue
            or self.memunit.busy
            or self.icu.has_pending
        ):
            return None
        return self.fetch.blocked_on()

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
                    vector,
                    recognition.merged,
                    recognition.imprecision,
                    recognition.status_bits,
                    bool(self.testwin & 1),
                    count_before,
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
        # One latch scan serves the stall check and both slots (see
        # LatchView).  r0 is never a destination, so a blocked register
        # of 0 means nothing is blocked.
        view = LatchView(self.memwb_latch, self.retire_latch, self.regfile)
        pc0, i0 = queue[0]
        blocked = view.blocked_register(i0.source_regs())
        if blocked:
            # Load-use (producer load in the EX/MEM latch) with the
            # access itself on its fast path: a true HDCU stall.  A load
            # still waiting on the bus shows up as MEM stall cycles via
            # _advance_mem, so avoid double counting.
            if not self.memunit.waiting_on_bus:
                self.hazstall += 1
                if self.recording:
                    self._record_hdcu_stall(view, blocked)
            return
        if i0.mnemonic is Mnemonic.SYNC and not self._sync_ready():
            self.hazstall += 1
            return
        queue.pop(0)
        self.exmem_latch.append(self._issue_one(i0, pc0, 0, cycle, view))
        if queue:
            pc1, i1 = queue[0]
            if can_dual_issue(i0, i1) and not view.blocked_register(
                i1.source_regs()
            ):
                queue.pop(0)
                self.exmem_latch.append(self._issue_one(i1, pc1, 1, cycle, view))

    def _sync_ready(self) -> bool:
        return (
            not self.memwb_latch
            and not self.retire_latch
            and not self.memunit.busy
        )

    def _issue_one(
        self, instr: Instruction, pc: int, slot: int, cycle: int, view: LatchView
    ) -> Uop:
        """Execute ``instr`` eagerly and return its uop."""
        spec = instr.spec
        if spec.is_64bit and not self.model.is64:
            raise SimulationError(
                f"core {self.model.name} cannot execute {instr.mnemonic.value} "
                "(64-bit extension is core C only)"
            )
        self._seq += 1
        uop = Uop(
            seq=self._seq,
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
                v1 = self._resolve_wide(view, instr.rs1, uop, slot, 0)
                v2 = self._resolve_wide(view, instr.rs2, uop, slot, 1)
                uop.result = execute_alu64(instr.mnemonic, v1, v2)
                uop.is64 = True
            else:
                v1 = self._resolve(view, instr.rs1, uop, slot, 0)
                v2 = self._resolve(view, instr.rs2, uop, slot, 1)
                uop.result, uop.trap_event = execute_alu(instr.mnemonic, v1, v2)
        elif fmt is Format.I:
            v1 = self._resolve(view, instr.rs1, uop, slot, 0)
            uop.result = execute_imm(instr.mnemonic, v1, instr.imm)
        elif fmt is Format.LUI:
            uop.result = (instr.imm << 12) & MASK32
        elif fmt is Format.LOAD:
            base = self._resolve(view, instr.rs1, uop, slot, 0)
            uop.is_load = True
            uop.result_ready = False
            uop.mem_address = (base + instr.imm) & MASK32
            uop.mem_width = 4 if instr.mnemonic is Mnemonic.LW else 1
        elif fmt is Format.STORE:
            base = self._resolve(view, instr.rs1, uop, slot, 0)
            data = self._resolve(view, instr.rs2, uop, slot, 1)
            uop.is_store = True
            uop.mem_address = (base + instr.imm) & MASK32
            uop.mem_width = 4 if instr.mnemonic is Mnemonic.SW else 1
            uop.store_value = data if uop.mem_width == 4 else data & 0xFF
        elif fmt is Format.BRANCH:
            v1 = self._resolve(view, instr.rs1, uop, slot, 0)
            v2 = self._resolve(view, instr.rs2, uop, slot, 1)
            if branch_taken(instr.mnemonic, v1, v2):
                self.fetch.redirect((pc + 4 * instr.imm) & MASK32)
        elif fmt is Format.JUMP:
            if instr.mnemonic is Mnemonic.JAL:
                uop.result = (pc + 4) & MASK32
            self.fetch.redirect(4 * instr.imm)
        elif fmt is Format.JR:
            target = self._resolve(view, instr.rs1, uop, slot, 0)
            self.fetch.redirect(target & ~3)
        elif instr.mnemonic is Mnemonic.CSRR:
            uop.result = self._csr_read(instr.csr)
        elif instr.mnemonic is Mnemonic.CSRW:
            v1 = self._resolve(view, instr.rs1, uop, slot, 0)
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

    def _resolve(
        self, view: LatchView, reg: int, uop: Uop, slot: int, operand: int
    ) -> int:
        res = view.resolve(reg)
        value, select, ready, candidates, valid_mask = res
        if not ready:  # pragma: no cover - guarded by the issue stall check
            raise SimulationError(f"issued {uop.instr} with unresolved r{reg}")
        uop.fwd_selects.append(select)
        if self.recording:
            self._record(
                view, reg, select, candidates, valid_mask, slot, operand, 32
            )
        if self.injected_fault is not None:
            # Only the value delivered to execution changes; the record
            # keeps the fault-free view (fault grading always runs against
            # the fault-free logic simulation, as in the paper's flow).
            return self.injected_fault.apply(slot, operand, Resolution(*res))
        return value

    def _resolve_wide(
        self, view: LatchView, reg: int, uop: Uop, slot: int, operand: int
    ) -> int:
        low, select, low_ready, low_candidates, valid_mask = view.resolve(reg)
        high, _, high_ready, high_candidates, _ = view.resolve(reg + 1)
        if not (low_ready and high_ready):  # pragma: no cover
            raise SimulationError(f"issued {uop.instr} with unresolved pair r{reg}")
        uop.fwd_selects.append(select)
        value = low | (high << 32)
        fault = self.injected_fault
        if not self.recording and fault is None:
            return value
        candidates = tuple(
            lo | (hi << 32) for lo, hi in zip(low_candidates, high_candidates)
        )
        if self.recording:
            self._record(
                view, reg, select, candidates, valid_mask, slot, operand, 64
            )
        if fault is not None:
            return fault.apply(
                slot, operand, Resolution(value, select, True, candidates, valid_mask)
            )
        return value

    def _record(
        self,
        view: LatchView,
        reg: int,
        select: FwdSource,
        candidates: tuple[int, int, int, int, int],
        valid_mask: int,
        slot: int,
        operand: int,
        width: int,
    ) -> None:
        observable = bool(self.testwin & 1)
        self.log.forwarding.append(
            ForwardingRecord(
                slot,
                operand,
                select,
                candidates,
                valid_mask,
                width,
                observable,
                bool(self.testwin & 2),
            )
        )
        # The selected input always carries the chosen value, so every
        # differing input is an alternative a select fault would expose.
        chosen = candidates[select]
        flip_mask = 0
        for source, value in enumerate(candidates):
            if value != chosen:
                flip_mask |= 1 << source
        producer_regs, producer_valid, producer_load_mask = view.summary
        self.log.hdcu.append(
            HdcuRecord(
                reg,
                producer_regs,
                producer_valid,
                select,
                False,  # stall
                flip_mask,
                observable,
                self.stall_observable and observable,
                slot,
                operand,
                producer_load_mask,
            )
        )

    def _record_hdcu_stall(self, view: LatchView, blocked: int) -> None:
        # Record the register that is actually blocked (the one produced
        # by the unready load), so the netlist's comparators match.
        producer_regs, producer_valid, producer_load_mask = view.summary
        observable = bool(self.testwin & 1)
        self.log.hdcu.append(
            HdcuRecord(
                blocked,
                producer_regs,
                producer_valid,
                FwdSource.RF,
                True,  # stall
                0,  # flip_visible_mask
                observable,
                self.stall_observable and observable,
                0,  # slot
                0,  # operand
                producer_load_mask,
            )
        )

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
