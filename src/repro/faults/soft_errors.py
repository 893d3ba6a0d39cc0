"""Seeded soft-error injection across the memory hierarchy.

The determinism paper argues that cache-wrapped STL routines survive
*benign* interference (bus contention delays).  This module models the
disturbances an automotive SoC actually meets in the field — single-bit
upsets in SRAM/flash arrays and cache data RAMs, plus transient glitches
on the shared interconnect — so the test infrastructure can demonstrate
the stronger claim: after a transient corrupts state, one supervised
re-entry of the loading loop re-warms the private caches and the routine
re-converges to its golden signature (see :mod:`repro.soc.supervisor`).

Everything here is driven by :class:`repro.utils.rng.DeterministicRng`,
so a whole disturbance campaign is reproducible from a single seed: two
runs with the same seed corrupt the same bits on the same cycles and
produce identical recovery reports.

Injection mechanisms live on the memory models themselves
(``MemoryDevice.flip_bit``, ``Cache.flip_bit``, ``SystemBus.glitcher``);
this module supplies the seeded *policies* and the structured log.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import FaultModelError
from repro.mem.bus import Transaction, TxnKind
from repro.mem.cache import Cache
from repro.mem.device import MemoryDevice
from repro.telemetry.events import NULL_SINK, EventKind
from repro.utils.rng import DeterministicRng


@dataclass(frozen=True)
class InjectionRecord:
    """One injected disturbance, as it will appear in the report."""

    kind: str  # "sram-flip" | "flash-flip" | "cache-flip" | ...
    target: str  # device or cache name
    address: int
    bit: int
    word_index: int = 0
    cycle: int | None = None
    core_id: int | None = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "target": self.target,
            "address": self.address,
            "bit": self.bit,
            "word_index": self.word_index,
            "cycle": self.cycle,
            "core_id": self.core_id,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "InjectionRecord":
        return cls(**data)


class SoftErrorInjector:
    """Seeded single-event-upset source for memories and caches.

    One injector owns one :class:`DeterministicRng` stream and a log of
    every flip it performed; replaying a campaign with the same seed
    reproduces the log bit for bit.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = DeterministicRng(seed)
        self.log: list[InjectionRecord] = []
        #: Telemetry sink (wired by TelemetrySession.attach_injector).
        self.telemetry = NULL_SINK

    def _record(self, record: InjectionRecord) -> InjectionRecord:
        self.log.append(record)
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.emit(
                EventKind.FAULT_INJECTION,
                core=record.core_id,
                kind=record.kind,
                target=record.target,
                address=record.address,
                bit=record.bit,
                word=record.word_index,
            )
        return record

    def flip_memory_bit(
        self, device: MemoryDevice, cycle: int | None = None
    ) -> InjectionRecord:
        """Flip a random bit of a random occupied word of ``device``."""
        candidates = device.occupied_addresses()
        if not candidates:
            raise FaultModelError(f"{device.name} holds no data to corrupt")
        address = self.rng.choice(candidates)
        bit = self.rng.randint(0, 31)
        device.flip_bit(address, bit)
        kind = f"{device.name.rstrip('0123456789')}-flip"
        return self._record(
            InjectionRecord(
                kind=kind, target=device.name, address=address, bit=bit, cycle=cycle
            )
        )

    def flip_cache_bit(
        self, cache: Cache, cycle: int | None = None, core_id: int | None = None
    ) -> InjectionRecord | None:
        """Flip a random bit of a random valid line of ``cache``.

        Returns None (and logs nothing) when the cache holds no valid
        lines — there is nothing for a particle to corrupt.
        """
        lines = cache.valid_line_addresses()
        if not lines:
            return None
        line_address = self.rng.choice(lines)
        word_index = self.rng.randint(0, cache.config.words_per_line - 1)
        bit = self.rng.randint(0, 31)
        cache.flip_bit(line_address, word_index, bit)
        return self._record(
            InjectionRecord(
                kind="cache-flip",
                target=cache.config.name,
                address=line_address,
                word_index=word_index,
                bit=bit,
                cycle=cycle,
                core_id=core_id,
            )
        )

    def log_dicts(self) -> list[dict]:
        """The full injection log in JSON-ready form."""
        return [record.to_dict() for record in self.log]


@dataclass
class GlitchStats:
    """What a :class:`BusGlitcher` actually did during a run."""

    grants_delayed: int = 0
    delay_cycles: int = 0
    errors_injected: int = 0


class BusGlitcher:
    """Seeded transient disturbances on the shared system bus.

    Installed as ``soc.bus.glitcher``; consulted once per grant (an
    extra arbitration delay models a glitched grant line) and once per
    completion (a retriable error response models a parity hiccup on the
    data phase).  Both draws come from one deterministic stream, so the
    glitch pattern of a run is a pure function of the seed and the
    transaction sequence.
    """

    def __init__(
        self,
        seed: int,
        delay_rate: float = 0.0,
        error_rate: float = 0.0,
        max_delay: int = 8,
        target_core: int | None = None,
        kinds: tuple[TxnKind, ...] | None = None,
    ):
        if not 0.0 <= delay_rate <= 1.0 or not 0.0 <= error_rate <= 1.0:
            raise FaultModelError("glitch rates must be within [0, 1]")
        if max_delay < 1:
            raise FaultModelError("max_delay must be at least one cycle")
        self.seed = seed
        self.rng = DeterministicRng(seed)
        self.delay_rate = delay_rate
        self.error_rate = error_rate
        self.max_delay = max_delay
        self.target_core = target_core
        self.kinds = kinds
        self.stats = GlitchStats()

    def _targets(self, txn: Transaction) -> bool:
        if self.target_core is not None and txn.core_id != self.target_core:
            return False
        if self.kinds is not None and txn.kind not in self.kinds:
            return False
        return True

    def _draw(self, rate: float) -> bool:
        # One u32 per decision keeps the stream aligned across runs.
        return self.rng.next_u32() < int(rate * 0x1_0000_0000)

    def grant_delay(self, txn: Transaction, cycle: int) -> int:
        """Extra cycles to stretch this grant by (0 = no glitch)."""
        if not self._targets(txn) or not self._draw(self.delay_rate):
            return 0
        delay = self.rng.randint(1, self.max_delay)
        self.stats.grants_delayed += 1
        self.stats.delay_cycles += delay
        return delay

    def error_response(self, txn: Transaction, cycle: int) -> bool:
        """True to turn this completion into a retriable error response.

        A re-submitted transaction is never re-glitched (the transient
        has passed), which keeps retry storms bounded by construction.
        """
        if txn.retries or not self._targets(txn) or not self._draw(self.error_rate):
            return False
        self.stats.errors_injected += 1
        return True


class AlwaysGlitch:
    """A worst-case glitcher: every matching completion errors out.

    Used to exercise the retry-exhaustion path: every access burns the
    bus's whole retry budget and :meth:`repro.mem.bus.SystemBus.resubmit`
    raises :class:`repro.errors.BusError`.
    """

    def __init__(self, target_core: int | None = None):
        self.target_core = target_core

    def grant_delay(self, txn: Transaction, cycle: int) -> int:
        return 0

    def error_response(self, txn: Transaction, cycle: int) -> bool:
        return self.target_core is None or txn.core_id == self.target_core


# ----------------------------------------------------------------------
# SoC fault hooks (installed into ``soc.fault_hooks``).
# ----------------------------------------------------------------------


@dataclass
class CycleTrigger:
    """Run ``action(soc)`` once when the SoC clock reaches ``cycle``."""

    cycle: int
    action: "callable"
    fired: bool = field(default=False, init=False)

    def __call__(self, soc) -> bool:
        if soc.cycle < self.cycle:
            return False
        self.action(soc)
        self.fired = True
        return True


class ExecutionEntryCorruption:
    """Corrupt a private cache exactly between the two wrapper loops.

    The cache-based wrapper (Fig. 2b) runs the routine body twice:
    TESTWIN carries 0 during the *loading* loop and 1 during the
    *execution* loop.  This hook watches the target core's TESTWIN and,
    on the first 0 -> 1 transition — i.e. after the caches are warm but
    before the checked signature is computed — flips one seeded bit in a
    valid line of the chosen cache.  It is the sharpest possible attack
    on the paper's determinism claim, and the one a supervised retry
    must repair.
    """

    def __init__(self, core_id: int, injector: SoftErrorInjector, which: str = "dcache"):
        if which not in ("icache", "dcache"):
            raise FaultModelError(f"unknown cache {which!r}")
        self.core_id = core_id
        self.injector = injector
        self.which = which
        self._prev_testwin = 0
        self.record: InjectionRecord | None = None

    def __call__(self, soc) -> bool:
        core = soc.cores[self.core_id]
        testwin = core.testwin & 1
        entered_execution = self._prev_testwin == 0 and testwin == 1
        self._prev_testwin = testwin
        if not entered_execution:
            return False
        cache = core.icache if self.which == "icache" else core.dcache
        self.record = self.injector.flip_cache_bit(
            cache, cycle=soc.cycle, core_id=self.core_id
        )
        return self.record is not None
