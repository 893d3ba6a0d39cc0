"""In-flight instruction state (micro-op) flowing down the pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instructions import Event, Instruction


@dataclass
class Uop:
    """One issued instruction travelling through EX -> MEM -> WB.

    ``result`` is computed eagerly at issue for ALU operations (the
    values forwarded to later consumers are architecturally identical to
    what the real forwarding network would deliver); loads leave
    ``result_ready`` False until their data returns from the memory
    system, which is what creates load-use stalls and bus-dependent
    forwarding behaviour.
    """

    seq: int
    instr: Instruction
    slot: int
    dests: tuple[int, ...] = ()
    result: int | None = None
    is64: bool = False
    result_ready: bool = True
    trap_event: Event | None = None
    # Memory access bookkeeping (loads/stores only).
    is_load: bool = False
    is_store: bool = False
    mem_address: int = 0
    mem_width: int = 4
    store_value: int = 0
    # Trace timestamps (cycle numbers; -1 = not reached).
    issue_cycle: int = -1
    wb_cycle: int = -1
    #: Forwarding selects used per operand port, for the Fig. 1 trace.
    fwd_selects: list = field(default_factory=list)

    def dest_value(self, reg: int) -> int:
        """The 32-bit value this uop will write to architectural ``reg``."""
        if self.result is None:
            raise ValueError(f"uop {self.instr} has no result")
        if not self.is64:
            return self.result & 0xFFFF_FFFF
        if reg == self.dests[0]:
            return self.result & 0xFFFF_FFFF
        return (self.result >> 32) & 0xFFFF_FFFF
