"""Tightly-Coupled Memories (scratchpads).

Each core owns an instruction TCM and a data TCM: single-cycle SRAM
banks on a private port, never arbitrated on the system bus.  The
TCM-based execution strategy of Table IV copies a routine into the
I-TCM and runs it from there; the copied bytes stay *reserved* for the
lifetime of the application, which is the memory-overhead drawback the
paper quantifies.
"""

from __future__ import annotations

from repro.mem.device import MemoryDevice


class Tcm(MemoryDevice):
    """A private single-cycle scratchpad memory."""

    def __init__(self, name: str, base: int, size: int):
        super().__init__(name, base, size, latency=1)
        self.reserved_bytes = 0

    def reserve(self, size_bytes: int) -> None:
        """Mark ``size_bytes`` as permanently reserved (Table IV metric)."""
        if size_bytes > self.size:
            raise ValueError(
                f"{self.name}: cannot reserve {size_bytes} B of {self.size} B"
            )
        self.reserved_bytes = max(self.reserved_bytes, size_bytes)
