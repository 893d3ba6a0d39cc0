"""Base class for word-addressable memory devices.

Devices store 32-bit words sparsely (a dict keyed by word address), so a
32 MiB flash costs only as much memory as the code programmed into it.
All timing is expressed in bus-clock cycles through
:meth:`MemoryDevice.access_cycles`, which the bus calls once per granted
transaction — the flash overrides it to model its prefetch line buffer.
"""

from __future__ import annotations

from repro.errors import MemoryError_


class MemoryDevice:
    """A contiguous, word-addressable memory region on the system bus."""

    def __init__(self, name: str, base: int, size: int, latency: int = 1):
        if base % 4 or size % 4:
            raise MemoryError_(f"{name}: base/size must be word-aligned")
        self.name = name
        self.base = base
        self.size = size
        self.latency = latency
        self._words: dict[int, int] = {}
        self.reads = 0
        self.writes = 0
        self.soft_error_flips = 0

    # ------------------------------------------------------------------
    # Address handling.
    # ------------------------------------------------------------------

    def contains(self, address: int) -> bool:
        """True when ``address`` falls inside this device."""
        return self.base <= address < self.base + self.size

    def _check(self, address: int) -> int:
        if not self.contains(address):
            raise MemoryError_(
                f"address {address:#010x} outside {self.name} "
                f"[{self.base:#010x}, {self.base + self.size:#010x})"
            )
        return address

    # ------------------------------------------------------------------
    # Data access (functional, no timing).
    # ------------------------------------------------------------------

    def read_word(self, address: int) -> int:
        """Read the aligned 32-bit word containing ``address``."""
        self._check(address)
        self.reads += 1
        return self._words.get(address & ~3, 0)

    def write_word(self, address: int, value: int) -> None:
        """Write an aligned 32-bit word."""
        self._check(address)
        self.writes += 1
        self._words[address & ~3] = value & 0xFFFF_FFFF

    def read_byte(self, address: int) -> int:
        """Read one byte (little-endian within the word)."""
        word = self.read_word(address & ~3)
        return (word >> (8 * (address & 3))) & 0xFF

    def write_byte(self, address: int, value: int) -> None:
        """Write one byte (read-modify-write of the containing word)."""
        shift = 8 * (address & 3)
        word = self._words.get(address & ~3, 0)
        word = (word & ~(0xFF << shift)) | ((value & 0xFF) << shift)
        self.write_word(address & ~3, word)

    def read_burst(self, address: int, words: int) -> list[int]:
        """Read ``words`` consecutive 32-bit words starting at ``address``."""
        return [self.read_word(address + 4 * i) for i in range(words)]

    # ------------------------------------------------------------------
    # Soft-error injection (see repro.faults.soft_errors).
    # ------------------------------------------------------------------

    def occupied_addresses(self) -> list[int]:
        """Word addresses holding explicitly written data, sorted.

        Injection targets are drawn from here so a seeded bit flip lands
        on state the simulation actually uses (the sparse backing store
        means unwritten words are an infinite sea of zeros).
        """
        return sorted(self._words)

    def flip_bit(self, address: int, bit: int) -> int:
        """Flip one bit of the word containing ``address`` (an SEU).

        Bypasses the functional write path on purpose: a particle strike
        in the array does not care about read-only programming guards.
        Returns the corrupted word.
        """
        self._check(address)
        if not 0 <= bit < 32:
            raise MemoryError_(f"{self.name}: bit index {bit} out of range")
        word = self._words.get(address & ~3, 0) ^ (1 << bit)
        self._words[address & ~3] = word
        self.soft_error_flips += 1
        return word

    # ------------------------------------------------------------------
    # Timing.
    # ------------------------------------------------------------------

    def access_cycles(self, address: int, is_write: bool, burst_words: int) -> int:
        """Bus-occupancy cycles for one transaction (may mutate device state
        such as a prefetch buffer; called exactly once per granted
        transaction)."""
        return self.latency + max(0, burst_words - 1)
