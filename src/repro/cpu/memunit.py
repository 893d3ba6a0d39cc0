"""Data memory unit (the MEM stage's load/store port).

Services one access at a time (the dual-issue front end only puts one
memory operation per packet, in pipe 0).  Routing mirrors the fetch
unit: D-TCM is a private single-cycle port; cacheable addresses go
through the write-back D-cache; everything else (or a disabled cache)
becomes a bus transaction.

Write-miss policy follows ``cache.write_allocate``: with write-allocate
a store miss fills the line first and then writes into it (two bus
bursts at most: victim write-back plus fill); with no-write-allocate the
store bypasses the cache entirely — the case where the cache-based
methodology requires a dummy load after each store (Section III.1).
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.cpu.uop import Uop
from repro.mem.bus import SystemBus, Transaction, TxnKind
from repro.mem.cache import Cache, FillPlan
from repro.mem.memmap import is_cacheable
from repro.mem.tcm import Tcm
from repro.telemetry.events import NULL_SINK, EventKind


class MemoryUnit:
    """Per-core load/store sequencer."""

    def __init__(
        self,
        core_id: int,
        bus: SystemBus,
        dcache: Cache,
        itcm: Tcm,
        dtcm: Tcm,
    ):
        self.core_id = core_id
        self.bus = bus
        self.dcache = dcache
        self.itcm = itcm
        self.dtcm = dtcm
        self.dcache_enabled = False
        self._uop: Uop | None = None
        self._phase: str | None = None
        self._txn: Transaction | None = None
        self._plan: FillPlan | None = None
        self._ready_cycle = 0
        #: Telemetry sink (no-op unless a TelemetrySession is attached).
        self.telemetry = NULL_SINK

    @property
    def busy(self) -> bool:
        return self._uop is not None

    @property
    def waiting_on_bus(self) -> bool:
        """True when the current access is stalled on a bus transaction
        (as opposed to the fixed one-cycle TCM / cache-hit latency)."""
        return self._uop is not None and self._phase != "wait"

    def cancel(self) -> None:
        """Abandon the in-flight access (supervisor hard reset).

        Any transaction still queued on the bus completes harmlessly;
        its result is simply never collected.
        """
        self._uop = None
        self._phase = None
        self._txn = None
        self._plan = None

    # ------------------------------------------------------------------
    # Access initiation.
    # ------------------------------------------------------------------

    def begin(self, uop: Uop, cycle: int) -> None:
        """Start the access for a load/store uop entering MEM."""
        if self._uop is not None:
            raise SimulationError("memory unit already busy")
        self._uop = uop
        address = uop.mem_address
        if uop.instr.spec.is_atomic:
            # Atomics are indivisible bus transactions; they bypass the
            # D-cache and the TCM fast path by design.
            self._txn = self.bus.submit(
                Transaction(
                    core_id=self.core_id,
                    kind=TxnKind.DREAD,
                    address=address & ~3,
                    burst_words=1,
                    atomic_set=True,
                ),
                cycle,
            )
            self._phase = "direct"
            return
        tcm = self._local_tcm(address)
        if tcm is not None:
            self._do_tcm(tcm, uop)
            self._phase = "wait"
            self._ready_cycle = cycle + 1
            return
        if self.dcache_enabled and is_cacheable(address):
            self._begin_cached(uop, cycle)
        else:
            self._begin_uncached(uop, cycle)

    def _local_tcm(self, address: int) -> Tcm | None:
        if self.dtcm.contains(address):
            return self.dtcm
        if self.itcm.contains(address):
            return self.itcm
        return None

    def _do_tcm(self, tcm: Tcm, uop: Uop) -> None:
        if uop.is_load:
            if uop.mem_width == 4:
                uop.result = tcm.read_word(uop.mem_address)
            else:
                uop.result = tcm.read_byte(uop.mem_address)
        elif uop.mem_width == 4:
            tcm.write_word(uop.mem_address, uop.store_value)
        else:
            tcm.write_byte(uop.mem_address, uop.store_value)

    def _begin_cached(self, uop: Uop, cycle: int) -> None:
        address = uop.mem_address
        if self.dcache.lookup(address):
            self._do_cache_hit(uop)
            self._phase = "wait"
            self._ready_cycle = cycle + 1
            return
        if uop.is_store and not self.dcache.write_allocate:
            self.dcache.stats.write_miss_bypasses += 1
            telemetry = self.telemetry
            if telemetry.enabled:
                telemetry.emit(
                    EventKind.CACHE_WRITE_MISS_BYPASS,
                    core=self.core_id,
                    cache=self.dcache.config.name,
                    address=address,
                )
            self._begin_uncached(uop, cycle)
            return
        self._plan = self.dcache.prepare_fill(address)
        if self._plan.writeback_address is not None:
            self._txn = self.bus.submit(
                Transaction(
                    core_id=self.core_id,
                    kind=TxnKind.DWRITE,
                    address=self._plan.writeback_address,
                    burst_words=len(self._plan.writeback_words),
                    is_write=True,
                    write_values=self._plan.writeback_words,
                ),
                cycle,
            )
            self._phase = "writeback"
        else:
            self._submit_fill(cycle)

    def _submit_fill(self, cycle: int) -> None:
        self._txn = self.bus.submit(
            Transaction(
                core_id=self.core_id,
                kind=TxnKind.DREAD,
                address=self._plan.line_address,
                burst_words=self.dcache.config.words_per_line,
            ),
            cycle,
        )
        self._phase = "fill"

    def _do_cache_hit(self, uop: Uop) -> None:
        if uop.is_load:
            uop.result = self.dcache.read(uop.mem_address, uop.mem_width)
        else:
            self.dcache.write(uop.mem_address, uop.store_value, uop.mem_width)

    def _begin_uncached(self, uop: Uop, cycle: int) -> None:
        if uop.is_load:
            txn = Transaction(
                core_id=self.core_id,
                kind=TxnKind.DREAD,
                address=uop.mem_address & ~3,
                burst_words=1,
            )
        else:
            txn = Transaction(
                core_id=self.core_id,
                kind=TxnKind.DWRITE,
                address=uop.mem_address if uop.mem_width == 1 else uop.mem_address & ~3,
                burst_words=1,
                is_write=True,
                write_values=[uop.store_value],
                byte_write=uop.mem_width == 1,
            )
        self._txn = self.bus.submit(txn, cycle)
        self._phase = "direct"

    # ------------------------------------------------------------------
    # Per-cycle polling.
    # ------------------------------------------------------------------

    def poll(self, cycle: int) -> bool:
        """Advance the access; True when the uop's access has completed."""
        uop = self._uop
        if uop is None:
            return True
        if self._phase == "wait":
            if cycle < self._ready_cycle:
                return False
            self._complete(uop)
            return True
        txn = self._txn
        if txn is None or not txn.done:
            return False
        if txn.error:
            # Retriable bus error response: retry in the same phase.
            self._txn = self.bus.resubmit(txn, cycle)
            return False
        if self._phase == "writeback":
            self._txn = None
            self._submit_fill(cycle)
            return False
        if self._phase == "fill":
            self.dcache.install(self._plan.line_address, txn.data)
            self._do_cache_hit(uop)
            self._txn = None
            self._plan = None
            self._complete(uop)
            return True
        # Direct (uncached) access.
        if uop.is_load:
            word = txn.data[0]
            if uop.mem_width == 1:
                word = (word >> (8 * (uop.mem_address & 3))) & 0xFF
            uop.result = word
        self._txn = None
        self._complete(uop)
        return True

    def _complete(self, uop: Uop) -> None:
        if uop.is_load:
            uop.result_ready = True
        self._uop = None
        self._phase = None
