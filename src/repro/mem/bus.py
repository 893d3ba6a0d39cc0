"""Shared system bus with round-robin arbitration.

A single transaction occupies the bus at a time (like the crossbar-less
AHB-style interconnect of small automotive SoCs); everything else queues.
Per-core wait-cycle statistics feed the Table I stall measurements.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields, replace

from repro.errors import BusError, MemoryError_
from repro.mem.memmap import MemoryMap
from repro.telemetry.events import NULL_SINK, EventKind


class TxnKind(enum.Enum):
    """What a bus transaction is for (statistics, and the kind of a
    :class:`BusError`)."""

    IFETCH = "ifetch"
    DREAD = "dread"
    DWRITE = "dwrite"


#: Re-submissions of one logical access after error responses, beyond
#: which :meth:`SystemBus.resubmit` gives up.
RETRY_LIMIT = 3

#: ``BusError`` message and kind of an access that ran out of retries.
_RETRY_FAILURE = {
    TxnKind.IFETCH: ("instruction fetch failed", "ifetch"),
    TxnKind.DREAD: ("data access failed", "read"),
    TxnKind.DWRITE: ("data access failed", "write"),
}


@dataclass
class Transaction:
    """One bus transaction; completed in place by :meth:`SystemBus.step`."""

    core_id: int
    kind: TxnKind
    address: int
    burst_words: int = 1
    is_write: bool = False
    write_values: list[int] = field(default_factory=list)
    byte_write: bool = False
    #: Atomic test-and-set: return the old word, then write 1, all
    #: within this single (indivisible) transaction.
    atomic_set: bool = False
    submit_cycle: int = 0
    grant_cycle: int | None = None
    complete_cycle: int | None = None
    done: bool = False
    #: Completed with a (retriable) error response instead of data.
    error: bool = False
    #: How many times this logical access has been re-submitted after an
    #: error response (carried across retries by :meth:`retry_clone`).
    retries: int = 0
    data: list[int] = field(default_factory=list)

    def retry_clone(self) -> "Transaction":
        """A fresh copy of this transaction for one more bus attempt."""
        return Transaction(
            core_id=self.core_id,
            kind=self.kind,
            address=self.address,
            burst_words=self.burst_words,
            is_write=self.is_write,
            write_values=list(self.write_values),
            byte_write=self.byte_write,
            atomic_set=self.atomic_set,
            retries=self.retries + 1,
        )


@dataclass
class BusStats:
    """Aggregate per-core bus statistics."""

    transactions: int = 0
    wait_cycles: int = 0
    busy_cycles: int = 0
    glitch_delay_cycles: int = 0
    error_responses: int = 0

    def snapshot(self) -> "BusStats":
        """An independent copy of the counters as they stand now."""
        return replace(self)

    def delta(self, since: "BusStats") -> "BusStats":
        """Counters accumulated strictly after ``since`` was taken."""
        return BusStats(
            **{
                f.name: getattr(self, f.name) - getattr(since, f.name)
                for f in fields(self)
            }
        )


class SystemBus:
    """Single-master-at-a-time shared bus with round-robin core priority.

    An optional *glitcher* (see :mod:`repro.faults.soft_errors`) models
    transient interconnect disturbances: it may stretch a grant by a few
    cycles (a delayed grant) or turn a completion into a retriable error
    response, which the issuing fetch/memory unit hands back to
    :meth:`resubmit`, the one bounded-retry rule.
    """

    def __init__(self, memmap: MemoryMap, num_cores: int):
        self.memmap = memmap
        self.num_cores = num_cores
        self._queue: list[Transaction] = []
        self._current: Transaction | None = None
        self._rr_next = 0
        self.stats = {core: BusStats() for core in range(num_cores)}
        self.total_grants = 0
        #: Optional disturbance model: an object with
        #: ``grant_delay(txn, cycle) -> int`` and
        #: ``error_response(txn, cycle) -> bool``.
        self.glitcher = None
        #: Telemetry sink (no-op unless a TelemetrySession is attached).
        self.telemetry = NULL_SINK

    def submit(self, txn: Transaction, cycle: int) -> Transaction:
        """Queue a transaction; it completes when ``txn.done`` turns True."""
        if txn.core_id >= self.num_cores:
            raise MemoryError_(f"unknown bus master {txn.core_id}")
        txn.submit_cycle = cycle
        self._queue.append(txn)
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.emit(
                EventKind.BUS_SUBMIT,
                core=txn.core_id,
                kind=txn.kind.value,
                address=txn.address,
                burst=txn.burst_words,
                write=txn.is_write,
                retries=txn.retries,
            )
        return txn

    def resubmit(self, txn: Transaction, cycle: int) -> Transaction:
        """Queue one more attempt of ``txn``, which completed with an
        error response, and return it.

        Raises :class:`BusError` once the access has been re-submitted
        :data:`RETRY_LIMIT` times.  The issuing unit keeps its place in
        program order by waiting on the returned transaction.
        """
        if txn.retries >= RETRY_LIMIT:
            message, kind = _RETRY_FAILURE[txn.kind]
            raise BusError(
                message,
                core_id=txn.core_id,
                address=txn.address,
                kind=kind,
                retries=txn.retries,
            )
        retry = self.submit(txn.retry_clone(), cycle)
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.emit(
                EventKind.BUS_RETRY,
                core=txn.core_id,
                kind=txn.kind.value,
                address=txn.address,
                attempt=retry.retries,
            )
        return retry

    @property
    def idle(self) -> bool:
        """True when no transaction is in flight or waiting."""
        return self._current is None and not self._queue

    def step(self, cycle: int) -> None:
        """Advance the bus by one clock cycle.

        Completion is checked before arbitration so a transaction whose
        time has elapsed frees the bus for a new grant in the same cycle.
        """
        current = self._current
        if current is not None:
            if cycle >= current.complete_cycle:
                self._finish(current)
                self._current = None
            else:
                self.stats[current.core_id].busy_cycles += 1
        if self._current is None and self._queue:
            self._grant(cycle)
        for txn in self._queue:
            self.stats[txn.core_id].wait_cycles += 1

    def _grant(self, cycle: int) -> None:
        chosen = None
        for offset in range(self.num_cores):
            core = (self._rr_next + offset) % self.num_cores
            for txn in self._queue:
                if txn.core_id == core:
                    chosen = txn
                    break
            if chosen is not None:
                break
        if chosen is None:  # pragma: no cover - queue non-empty implies a hit
            return
        self._queue.remove(chosen)
        try:
            device = self.memmap.route(chosen.address)
        except MemoryError_ as exc:
            raise MemoryError_(f"core {chosen.core_id}: {exc}") from None
        latency = device.access_cycles(
            chosen.address, chosen.is_write, chosen.burst_words
        )
        delay = 0
        if self.glitcher is not None:
            delay = self.glitcher.grant_delay(chosen, cycle)
            if delay:
                latency += delay
                self.stats[chosen.core_id].glitch_delay_cycles += delay
        chosen.grant_cycle = cycle
        chosen.complete_cycle = cycle + latency
        self._current = chosen
        self._rr_next = (chosen.core_id + 1) % self.num_cores
        self.total_grants += 1
        self.stats[chosen.core_id].transactions += 1
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.emit(
                EventKind.BUS_GRANT,
                core=chosen.core_id,
                kind=chosen.kind.value,
                address=chosen.address,
                wait=cycle - chosen.submit_cycle,
                glitch=delay,
            )

    def _finish(self, txn: Transaction) -> None:
        if self.glitcher is not None and self.glitcher.error_response(
            txn, txn.complete_cycle
        ):
            # Retriable error response: no data transfer happened; the
            # issuing unit sees ``txn.error`` and re-submits (bounded).
            self.stats[txn.core_id].error_responses += 1
            txn.error = True
            txn.done = True
            telemetry = self.telemetry
            if telemetry.enabled:
                telemetry.emit(
                    EventKind.BUS_ERROR,
                    core=txn.core_id,
                    kind=txn.kind.value,
                    address=txn.address,
                    grant=txn.grant_cycle,
                    retries=txn.retries,
                )
            return
        device = self.memmap.route(txn.address)
        if txn.atomic_set:
            txn.data = [device.read_word(txn.address)]
            device.write_word(txn.address, 1)
        elif txn.is_write:
            if txn.byte_write:
                device.write_byte(txn.address, txn.write_values[0])
            else:
                for i, value in enumerate(txn.write_values):
                    device.write_word(txn.address + 4 * i, value)
        else:
            txn.data = device.read_burst(txn.address, txn.burst_words)
        txn.done = True
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.emit(
                EventKind.BUS_COMPLETE,
                core=txn.core_id,
                kind=txn.kind.value,
                address=txn.address,
                burst=txn.burst_words,
                write=txn.is_write,
                submit=txn.submit_cycle,
                grant=txn.grant_cycle,
                busy=txn.complete_cycle - txn.grant_cycle,
            )
