"""Issue-packet-aware assembly builder.

SBST routines for dual-issue processors must control *which slot of
which issue packet* every producer and consumer lands in — that is the
whole point of the exhaustive forwarding test of Bernardi et al. [19].
:class:`PhasedBuilder` extends the plain assembler with a static
simulation of the front end's greedy packet formation (the exact
``can_dual_issue`` predicate the modelled core uses), so a generator can
assert packet boundaries while it emits.

The static phase is only guaranteed to match the hardware while the
fetch queue stays ahead of issue — true by construction inside the
cache-based execution loop, and *deliberately untrue* under multi-core
bus contention, where fetch starvation splits packets at arbitrary
points.  That divergence is the paper's Section II failure mechanism.
"""

from __future__ import annotations

from repro.isa.builder import AsmBuilder
from repro.isa.instructions import Instruction
from repro.cpu.hazard import can_dual_issue


class PhasedBuilder(AsmBuilder):
    """An :class:`AsmBuilder` that tracks greedy dual-issue pairing."""

    def __init__(self, base_address: int = 0, name: str = "program"):
        super().__init__(base_address, name)
        self._packet_pending: Instruction | None = None

    def emit(self, instr: Instruction) -> int:
        index = super().emit(instr)
        self._feed(instr)
        return index

    def _feed(self, instr: Instruction) -> None:
        pending = self._packet_pending
        if pending is None:
            # An instruction that issues alone leaves the next one to
            # start a packet.
            self._packet_pending = None if instr.spec.issues_alone else instr
            return
        if can_dual_issue(pending, instr):
            self._packet_pending = None
        else:
            # ``pending`` issues alone; ``instr`` becomes the new head.
            self._packet_pending = None
            self._feed(instr)

    @property
    def at_packet_boundary(self) -> bool:
        """True when the next emitted instruction opens a fresh packet."""
        return self._packet_pending is None

    def align(self) -> None:
        """Pad with a NOP if needed so the next instruction opens a packet."""
        if self._packet_pending is not None:
            self.nop()  # A NOP always pairs, closing the packet.

    def packet(self, *instrs: Instruction) -> None:
        """Emit one full issue packet (1 or 2 instructions).

        A single non-branch, non-system instruction is padded with a NOP
        so the following code starts a new packet.  A two-instruction
        packet must satisfy the dual-issue rules.
        """
        if not 1 <= len(instrs) <= 2:
            raise ValueError("a packet holds 1 or 2 instructions")
        self.align()
        if len(instrs) == 2:
            if not can_dual_issue(instrs[0], instrs[1]):
                raise ValueError(
                    f"cannot dual-issue {instrs[0]} with {instrs[1]}"
                )
            self.emit(instrs[0])
            self.emit(instrs[1])
            return
        only = instrs[0]
        self.emit(only)
        if not only.spec.issues_alone:
            self.nop()
