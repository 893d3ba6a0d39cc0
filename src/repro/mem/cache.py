"""Core-private set-associative caches.

The modelled SoC gives each core an 8 KiB instruction cache and a 4 KiB
data cache (Section IV-A).  The data cache is write-back and supports the
two write-miss policies the paper distinguishes:

* **write allocate** — a write miss fills the line and then writes into it,
  which is what lets the *loading loop* of the cache-based strategy pull
  the routine's data into the D-cache as a side effect of its stores;
* **no-write allocate** — a write miss goes straight to memory, so the
  methodology requires a dummy load after each store (Section III.1).

Invalidation (``ICINV``/``DCINV``) drops every line without writing dirty
data back: the self-test procedures only keep scratch data in the cache
and their verdict lives in registers, matching the paper's usage.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from repro.errors import MemoryError_
from repro.telemetry.events import NULL_SINK, EventKind
from repro.utils.bitops import align_down


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and policy of one cache."""

    name: str
    size_bytes: int
    line_bytes: int = 32
    ways: int = 2
    write_allocate: bool = True

    def __post_init__(self):
        for value, label in (
            (self.size_bytes, "size"),
            (self.line_bytes, "line size"),
            (self.ways, "ways"),
        ):
            if value <= 0 or value & (value - 1):
                raise MemoryError_(f"cache {label} must be a power of two")
        if self.size_bytes % (self.line_bytes * self.ways):
            raise MemoryError_("cache size not divisible by line*ways")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.ways)

    @property
    def words_per_line(self) -> int:
        return self.line_bytes // 4


@dataclass
class _Line:
    tag: int = 0
    valid: bool = False
    dirty: bool = False
    words: list[int] = field(default_factory=list)


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache."""

    hits: int = 0
    misses: int = 0
    fills: int = 0
    writebacks: int = 0
    write_miss_bypasses: int = 0
    invalidations: int = 0
    soft_error_flips: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def snapshot(self) -> "CacheStats":
        """An independent copy of the counters as they stand now."""
        return replace(self)

    def delta(self, since: "CacheStats") -> "CacheStats":
        """Counters accumulated strictly after ``since`` was taken."""
        return CacheStats(
            **{
                f.name: getattr(self, f.name) - getattr(since, f.name)
                for f in fields(self)
            }
        )


@dataclass
class FillPlan:
    """What the memory unit must do to service a miss."""

    line_address: int
    writeback_address: int | None = None
    writeback_words: list[int] = field(default_factory=list)


class Cache:
    """A set-associative write-back cache with true-LRU replacement."""

    def __init__(self, config: CacheConfig):
        self.config = config
        #: Effective write-miss policy; runtime-configurable through the
        #: CACHECFG CSR before the cache is used (Section IV-A).
        self.write_allocate = config.write_allocate
        self._sets = [
            [_Line() for _ in range(config.ways)] for _ in range(config.num_sets)
        ]
        self._lru = [list(range(config.ways)) for _ in range(config.num_sets)]
        # Address geometry as shifts and masks (every size is a power of
        # two, which CacheConfig enforces).
        self._offset_mask = config.line_bytes - 1
        self._set_shift = config.line_bytes.bit_length() - 1
        self._set_mask = config.num_sets - 1
        self._tag_shift = self._set_shift + config.num_sets.bit_length() - 1
        self.stats = CacheStats()
        #: Telemetry sink (no-op unless a TelemetrySession is attached)
        #: and the core id events are attributed to while attached.
        self.telemetry = NULL_SINK
        self.telemetry_core: int | None = None

    # ------------------------------------------------------------------
    # Address decomposition.
    # ------------------------------------------------------------------

    def _decompose(self, address: int) -> tuple[int, int, int]:
        return (
            address >> self._tag_shift,
            (address >> self._set_shift) & self._set_mask,
            (address & self._offset_mask) >> 2,
        )

    def _find(self, address: int) -> tuple[int, int] | None:
        tag = address >> self._tag_shift
        set_index = (address >> self._set_shift) & self._set_mask
        for way, line in enumerate(self._sets[set_index]):
            if line.valid and line.tag == tag:
                return set_index, way
        return None

    def _touch(self, set_index: int, way: int) -> None:
        order = self._lru[set_index]
        order.remove(way)
        order.append(way)

    # ------------------------------------------------------------------
    # Lookup and hit-path access.
    # ------------------------------------------------------------------

    def probe(self, address: int) -> bool:
        """Non-intrusive hit test (no LRU update, no statistics)."""
        return self._find(address) is not None

    def lookup(self, address: int) -> bool:
        """Hit test that records one access in the statistics."""
        hit = self._find(address) is not None
        self._count_access(address, hit)
        return hit

    def read_group(self, address: int, words: int) -> list[int] | None:
        """Look up ``address`` and, on a hit, read ``words`` consecutive
        words from it (a fetch group, which never crosses a line).

        Statistics, LRU state and telemetry end up exactly as after
        :meth:`lookup` followed by one :meth:`read` per word; a miss
        returns None.
        """
        location = self._find(address)
        self._count_access(address, location is not None)
        if location is None:
            return None
        set_index, way = location
        self._touch(set_index, way)
        start = (address & self._offset_mask) >> 2
        return self._sets[set_index][way].words[start : start + words]

    def _count_access(self, address: int, hit: bool) -> None:
        if hit:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.emit(
                EventKind.CACHE_HIT if hit else EventKind.CACHE_MISS,
                core=self.telemetry_core,
                cache=self.config.name,
                address=address,
            )

    def read(self, address: int, width: int = 4) -> int:
        """Read a word or byte that must currently hit."""
        location = self._find(address)
        if location is None:
            raise MemoryError_(
                f"{self.config.name}: read of {address:#010x} is not resident"
            )
        set_index, way = location
        self._touch(set_index, way)
        _, _, word_index = self._decompose(address)
        word = self._sets[set_index][way].words[word_index]
        if width == 4:
            return word
        if width == 1:
            return (word >> (8 * (address & 3))) & 0xFF
        raise MemoryError_(f"unsupported access width {width}")

    def write(self, address: int, value: int, width: int = 4) -> None:
        """Write into a resident line (marks it dirty)."""
        location = self._find(address)
        if location is None:
            raise MemoryError_(
                f"{self.config.name}: write to {address:#010x} is not resident"
            )
        set_index, way = location
        self._touch(set_index, way)
        line = self._sets[set_index][way]
        _, _, word_index = self._decompose(address)
        if width == 4:
            line.words[word_index] = value & 0xFFFF_FFFF
        elif width == 1:
            shift = 8 * (address & 3)
            word = line.words[word_index]
            line.words[word_index] = (word & ~(0xFF << shift)) | (
                (value & 0xFF) << shift
            )
        else:
            raise MemoryError_(f"unsupported access width {width}")
        line.dirty = True

    # ------------------------------------------------------------------
    # Miss handling.
    # ------------------------------------------------------------------

    def prepare_fill(self, address: int) -> FillPlan:
        """Pick a victim for the line containing ``address``.

        Returns the aligned line address to fetch and, if the victim is
        dirty, the write-back the memory unit must perform first.  The
        victim is *not* modified yet; :meth:`install` completes the fill.
        """
        line_address = align_down(address, self.config.line_bytes)
        _, set_index, _ = self._decompose(address)
        victim_way = self._lru[set_index][0]
        victim = self._sets[set_index][victim_way]
        plan = FillPlan(line_address=line_address)
        if victim.valid and victim.dirty:
            victim_base = (
                victim.tag * self.config.num_sets + set_index
            ) * self.config.line_bytes
            plan.writeback_address = victim_base
            plan.writeback_words = list(victim.words)
            self.stats.writebacks += 1
            telemetry = self.telemetry
            if telemetry.enabled:
                telemetry.emit(
                    EventKind.CACHE_WRITEBACK,
                    core=self.telemetry_core,
                    cache=self.config.name,
                    address=victim_base,
                )
        return plan

    def install(self, line_address: int, words: list[int]) -> None:
        """Install a fetched line (replacing the LRU victim)."""
        if len(words) != self.config.words_per_line:
            raise MemoryError_(
                f"{self.config.name}: fill of {len(words)} words, "
                f"expected {self.config.words_per_line}"
            )
        tag, set_index, _ = self._decompose(line_address)
        victim_way = self._lru[set_index][0]
        line = self._sets[set_index][victim_way]
        line.tag = tag
        line.valid = True
        line.dirty = False
        line.words = [w & 0xFFFF_FFFF for w in words]
        self._touch(set_index, victim_way)
        self.stats.fills += 1
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.emit(
                EventKind.CACHE_FILL,
                core=self.telemetry_core,
                cache=self.config.name,
                address=line_address,
            )

    def invalidate_all(self) -> None:
        """Drop every line (dirty contents are discarded, not written back)."""
        for cache_set in self._sets:
            for line in cache_set:
                line.valid = False
                line.dirty = False
        self.stats.invalidations += 1
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.emit(
                EventKind.CACHE_INVALIDATE,
                core=self.telemetry_core,
                cache=self.config.name,
            )

    # ------------------------------------------------------------------
    # Soft-error injection (see repro.faults.soft_errors).
    # ------------------------------------------------------------------

    def valid_line_addresses(self) -> list[int]:
        """Base addresses of every valid line, in deterministic order.

        Ordered by (set, way) so a seeded injector picking an index is
        reproducible run to run.
        """
        addresses = []
        for set_index, cache_set in enumerate(self._sets):
            for line in cache_set:
                if line.valid:
                    addresses.append(
                        (line.tag * self.config.num_sets + set_index)
                        * self.config.line_bytes
                    )
        return addresses

    def flip_bit(self, line_address: int, word_index: int, bit: int) -> int:
        """Flip one bit of a resident line (an SEU in the cache array).

        The line's dirty/valid state is untouched — a particle strike
        corrupts the data array, not the tag RAM bookkeeping.  Returns
        the corrupted word.
        """
        location = self._find(line_address)
        if location is None:
            raise MemoryError_(
                f"{self.config.name}: flip target {line_address:#010x} "
                "is not resident"
            )
        if not 0 <= word_index < self.config.words_per_line:
            raise MemoryError_(
                f"{self.config.name}: word index {word_index} out of line"
            )
        if not 0 <= bit < 32:
            raise MemoryError_(f"{self.config.name}: bit index {bit} out of range")
        set_index, way = location
        line = self._sets[set_index][way]
        line.words[word_index] ^= 1 << bit
        self.stats.soft_error_flips += 1
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.emit(
                EventKind.CACHE_SOFT_ERROR_FLIP,
                core=self.telemetry_core,
                cache=self.config.name,
                address=line_address,
                word=word_index,
                bit=bit,
            )
        return line.words[word_index]

    # ------------------------------------------------------------------
    # Introspection helpers for tests and the Fig. 2 structural audit.
    # ------------------------------------------------------------------

    def resident_lines(self) -> int:
        """Number of valid lines currently held."""
        return sum(
            1 for cache_set in self._sets for line in cache_set if line.valid
        )

    def holds_range(self, start: int, size_bytes: int) -> bool:
        """True when every byte of [start, start+size) is resident."""
        address = align_down(start, self.config.line_bytes)
        end = start + size_bytes
        while address < end:
            if not self.probe(address):
                return False
            address += self.config.line_bytes
        return True
