"""Instruction fetch unit.

Fetches aligned fetch groups into a small queue.  Three paths exist,
selected per address:

* **I-TCM** — private single-cycle scratchpad, two words per cycle;
* **I-cache** (when enabled) — two words per cycle on a hit, a full
  line fill over the system bus on a miss;
* **uncached** — 16-byte aligned burst transactions on the system bus,
  with up to two bursts in flight (the flash controller streams ahead
  of execution, like a real prefetcher).

The uncached path is where the paper's Section II uncertainty lives:
with an idle bus the streamed bursts keep the issue queue fed and most
issue packets stay back-to-back, but every cycle another core holds the
bus delays the next burst and opens a fetch gap — splitting packets and
silently changing which forwarding paths get excited.  A redirect to an
unaligned target fetches a partial group first, so the code-alignment
scenarios of Table II genuinely change the fetch phase.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache

from repro.errors import MemoryError_
from repro.isa.encoding import decode
from repro.isa.instructions import Instruction
from repro.mem.bus import SystemBus, Transaction, TxnKind
from repro.mem.cache import Cache
from repro.mem.memmap import is_cacheable
from repro.mem.tcm import Tcm


@lru_cache(maxsize=65536)
def _decode_word(word: int) -> Instruction:
    return decode(word)


class FetchUnit:
    """Per-core instruction fetch front end feeding the issue queue."""

    QUEUE_CAPACITY = 8
    #: Uncached fetch granule: one 16-byte (two-packet) burst.
    UNCACHED_GROUP_BYTES = 16
    #: Outstanding uncached bursts (the prefetch stream depth).
    UNCACHED_PIPELINE = 2

    def __init__(
        self,
        core_id: int,
        bus: SystemBus,
        icache: Cache,
        itcm: Tcm,
    ):
        self.core_id = core_id
        self.bus = bus
        self.icache = icache
        self.itcm = itcm
        self.icache_enabled = False
        self.fetch_pc = 0
        self.queue: list[tuple[int, Instruction]] = []
        #: In-flight fetch transactions, oldest first.  Entries are
        #: (txn, pc, is_fill, discard).
        self._inflight: deque[list] = deque()
        #: Head fetch the owning core is starved on (set by ``Core.step``
        #: from :meth:`blocked_on`): until it is done, the core's cycles
        #: are pure IF stalls.  A redirect clears it.
        self.starved_on: Transaction | None = None

    # ------------------------------------------------------------------
    # Control.
    # ------------------------------------------------------------------

    def redirect(self, pc: int) -> None:
        """Branch redirect: flush the queue, drop any in-flight fetches."""
        if pc % 4:
            raise MemoryError_(
                f"core {self.core_id}: fetch target {pc:#010x} is not "
                "word-aligned"
            )
        self.fetch_pc = pc
        self.queue.clear()
        self.starved_on = None
        for entry in self._inflight:
            entry[3] = True  # discard on completion

    def blocked_on(self) -> Transaction | None:
        """The head in-flight fetch when the next :meth:`step` (of a core
        that is not halted, with an empty queue) can neither collect nor
        launch a fetch; None otherwise.

        Nothing is collected while the head is not done.  The TCM and
        cache paths launch only with nothing in flight; the uncached path
        launches while :meth:`_uncached_room` allows.
        """
        inflight = self._inflight
        if not inflight:
            return None
        txn = inflight[0][0]
        if txn.done:
            return None
        pc = self.fetch_pc
        if self.itcm.contains(pc) or (self.icache_enabled and is_cacheable(pc)):
            return txn
        if self._uncached_room(self._pending_words()):
            return None
        return txn

    # ------------------------------------------------------------------
    # Per-cycle operation.
    # ------------------------------------------------------------------

    def step(self, cycle: int, halted: bool) -> None:
        """Collect completed fetches (in order) and launch new ones."""
        self._collect(cycle)
        if halted:
            return
        pc = self.fetch_pc
        if self.itcm.contains(pc):
            if not self._inflight and len(self.queue) <= self.QUEUE_CAPACITY - 2:
                self._fetch_from_tcm(pc)
        elif self.icache_enabled and is_cacheable(pc):
            if not self._inflight and len(self.queue) <= self.QUEUE_CAPACITY - 2:
                self._fetch_from_cache(pc, cycle)
        else:
            self._fetch_uncached(cycle)

    def _collect(self, cycle: int) -> None:
        while self._inflight and self._inflight[0][0].done:
            txn, pc, is_fill, discard = self._inflight.popleft()
            if discard:
                continue
            if txn.error:
                # Retriable bus error response: the retry goes back at
                # the head of the stream so program order holds.
                retry = self.bus.resubmit(txn, cycle)
                self._inflight.appendleft([retry, pc, is_fill, False])
                return
            if is_fill:
                self.icache.install(txn.address, txn.data)
                # The requested words are read out of the cache on the
                # next step (fill-to-fetch turnaround).
                continue
            for i, word in enumerate(txn.data):
                self.queue.append((pc + 4 * i, _decode_word(word)))

    def _group_words(self, pc: int) -> int:
        """Words left in the 8-byte aligned fetch group containing ``pc``."""
        return 1 if (pc >> 2) & 1 else 2

    def _fetch_from_tcm(self, pc: int) -> None:
        for _ in range(self._group_words(pc)):
            word = self.itcm.read_word(pc)
            self.queue.append((pc, _decode_word(word)))
            pc += 4
        self.fetch_pc = pc

    def _fetch_from_cache(self, pc: int, cycle: int) -> None:
        # An 8-byte fetch group never crosses a cache line, so one probe
        # answers for the whole group.
        words = self.icache.read_group(pc, self._group_words(pc))
        if words is None:
            plan = self.icache.prepare_fill(pc)
            # Instruction lines are never dirty; only the fill is needed.
            txn = self.bus.submit(
                Transaction(
                    core_id=self.core_id,
                    kind=TxnKind.IFETCH,
                    address=plan.line_address,
                    burst_words=self.icache.config.words_per_line,
                ),
                cycle,
            )
            self._inflight.append([txn, pc, True, False])
            return
        for word in words:
            self.queue.append((pc, _decode_word(word)))
            pc += 4
        self.fetch_pc = pc

    def _pending_words(self) -> int:
        """Words still to arrive from in-flight fetches not discarded."""
        return sum(entry[0].burst_words for entry in self._inflight if not entry[3])

    def _uncached_room(self, pending_words: int) -> bool:
        """Whether the uncached stream may launch one more burst."""
        return (
            len(self._inflight) < self.UNCACHED_PIPELINE
            and len(self.queue) + pending_words <= self.QUEUE_CAPACITY - 4
        )

    def _fetch_uncached(self, cycle: int) -> None:
        pending_words = self._pending_words()
        while self._uncached_room(pending_words):
            pc = self.fetch_pc
            group = self.UNCACHED_GROUP_BYTES
            words = (group - (pc % group)) // 4
            txn = self.bus.submit(
                Transaction(
                    core_id=self.core_id,
                    kind=TxnKind.IFETCH,
                    address=pc,
                    burst_words=words,
                ),
                cycle,
            )
            self._inflight.append([txn, pc, False, False])
            self.fetch_pc = pc + 4 * words
            pending_words += words
