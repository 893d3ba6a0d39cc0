"""Architectural register state."""

from __future__ import annotations

from repro.errors import SimulationError
from repro.isa.instructions import NUM_REGS
from repro.utils.bitops import MASK32


class RegFile:
    """32 general-purpose 32-bit registers; r0 is hard-wired to zero."""

    def __init__(self):
        self._regs = [0] * NUM_REGS

    def read(self, index: int) -> int:
        if not 0 <= index < NUM_REGS:
            raise SimulationError(f"register r{index} does not exist")
        return self._regs[index]

    def write(self, index: int, value: int) -> None:
        if not 0 <= index < NUM_REGS:
            raise SimulationError(f"register r{index} does not exist")
        if index != 0:
            self._regs[index] = value & MASK32

    def snapshot(self) -> tuple[int, ...]:
        """Immutable copy of the whole file (for differential testing)."""
        return tuple(self._regs)
