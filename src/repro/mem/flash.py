"""Embedded flash with a prefetch line buffer.

The paper's SoC fetches issue packets from flash with an 8-clock-cycle
latency (Section IV-D).  Real automotive flash controllers hide part of
that latency behind a prefetch buffer holding the most recently read
flash line: sequential fetches hit the buffer and complete quickly, and
only line-boundary crossings (or discontinuous accesses) pay the full
array access.

The buffer is a property of the *flash controller*, shared by every bus
master.  When several cores execute from flash concurrently their
interleaved fetches evict each other's buffered line, so almost every
access pays the full array latency — this is the mechanism behind the
super-linear stall growth of Table I.
"""

from __future__ import annotations

from repro.errors import MemoryError_
from repro.mem.device import MemoryDevice
from repro.utils.bitops import align_down


class Flash(MemoryDevice):
    """Read-only flash with a single shared prefetch line buffer."""

    def __init__(
        self,
        base: int = 0x0000_0000,
        size: int = 32 << 20,
        array_cycles: int = 8,
        buffer_cycles: int = 2,
        buffer_bytes: int = 32,
        num_buffers: int = 2,
    ):
        super().__init__("flash", base, size, latency=array_cycles)
        if buffer_bytes & (buffer_bytes - 1):
            raise MemoryError_("flash buffer size must be a power of two")
        if num_buffers < 1:
            raise MemoryError_("flash needs at least one prefetch buffer")
        self.array_cycles = array_cycles
        self.buffer_cycles = buffer_cycles
        self.buffer_bytes = buffer_bytes
        self.num_buffers = num_buffers
        #: LRU list of buffered line addresses, most recent last.  Two
        #: buffers let a single core's code and data streams coexist;
        #: three cores' interleaved fetches still thrash them.
        self._buffered_lines: list[int] = []
        self.buffer_hits = 0
        self.buffer_misses = 0

    def write_word(self, address: int, value: int) -> None:
        raise MemoryError_(
            f"flash is read-only at run time (write to {address:#010x}); "
            "use program_word() when building the memory image"
        )

    def program_word(self, address: int, value: int) -> None:
        """Program a word at image-build time (bypasses the read-only guard)."""
        self._check(address)
        self._words[address & ~3] = value & 0xFFFF_FFFF

    def reset_buffer(self) -> None:
        """Invalidate the prefetch buffers (e.g. at SoC reset)."""
        self._buffered_lines.clear()

    def _touch(self, line: int) -> None:
        if line in self._buffered_lines:
            self._buffered_lines.remove(line)
        self._buffered_lines.append(line)
        while len(self._buffered_lines) > self.num_buffers:
            self._buffered_lines.pop(0)

    def access_cycles(self, address: int, is_write: bool, burst_words: int) -> int:
        """One transaction's bus occupancy.

        The flash array reads a whole line per access and the controller
        exposes it over a line-wide port, so a burst inside a buffered
        line costs only the buffer access — no per-word cycles.  That
        makes a single core's sequential fetch stream *almost* keep up
        with dual issue, which is exactly the regime the paper
        describes: the stream is marginal alone and collapses as soon
        as other masters hold the bus.
        """
        if is_write:
            raise MemoryError_("flash is read-only")
        line = align_down(address, self.buffer_bytes)
        end_line = align_down(address + 4 * burst_words - 1, self.buffer_bytes)
        if line == end_line and line in self._buffered_lines:
            self.buffer_hits += 1
            self._touch(line)
            return self.buffer_cycles
        self.buffer_misses += 1
        # A burst crossing a line boundary pays a second array access.
        extra_lines = (end_line - line) // self.buffer_bytes
        self._touch(line)
        if end_line != line:
            self._touch(end_line)
        return self.array_cycles * (1 + extra_lines)
