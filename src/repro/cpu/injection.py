"""Behavioural fault injection into the live pipeline.

"When the test is executed in field, the test signature represents the
only way to safely detect the occurrence of faults" (Section I).  This
module closes the loop on that claim: a stuck-at fault is injected into
the *running* forwarding network (not the offline netlist), the
finalised self-test procedure executes normally, and detection shows up
the only way it can in the field — as a signature mismatch and a FAIL
verdict in the mailbox.

The injectable faults correspond one-to-one to primary-input stem
faults of the generated mux netlists (data column x bit, or a forced
select), so in-field detection can be cross-checked against the PPSFP
verdict for the same fault — which the test suite does.

Every fault answers one call, ``apply(slot, operand, resolution)``: the
core hands it the fault-free :class:`Resolution` of each operand it
resolves (a 64-bit register pair on core C's wide instructions) and
executes with the value it returns.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.forwarding import Resolution
from repro.cpu.recording import FwdSource


@dataclass(frozen=True)
class DataBitFault:
    """Stuck-at on one bit of one mux data column of one consumer port.

    The faulty bit corrupts the operand only when the mux actually
    selects that column — unexcited paths mask the fault, exactly the
    coverage-loss mechanism of Section II.
    """

    slot: int
    operand: int
    source: FwdSource
    bit: int
    stuck_to: int  # 0 or 1

    def apply(self, slot: int, operand: int, resolution: Resolution) -> int:
        value = resolution.value
        if (slot, operand) != (self.slot, self.operand):
            return value
        if resolution.select != self.source:
            return value
        if self.stuck_to:
            return value | (1 << self.bit)
        return value & ~(1 << self.bit)


@dataclass(frozen=True)
class SelectFault:
    """The mux of one consumer port permanently selects ``forced``.

    Models a hard select-line failure; visible only on patterns where
    the forced column's data differs from the correct one.
    """

    slot: int
    operand: int
    forced: FwdSource

    def apply(self, slot: int, operand: int, resolution: Resolution) -> int:
        if (slot, operand) != (self.slot, self.operand):
            return resolution.value
        return resolution.candidates[int(self.forced)]


def install(core, fault) -> None:
    """Arm a fault on a core (replaces any previously armed fault)."""
    core.injected_fault = fault


def clear(core) -> None:
    """Return the core to fault-free operation."""
    core.injected_fault = None
