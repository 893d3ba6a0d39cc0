"""Issue rules of the Hazard Detection Control Unit (HDCU).

The HDCU "detects dependencies among issue packets, driving the
forwarding paths and possibly stalls the pipeline if the forwarding is
not possible" (Section IV-A).  In this model it decides, every cycle:

* whether the two queue-head instructions may form a dual-issue packet
  (structural rules of the dual-issue front end, :func:`can_dual_issue`),
  and
* whether issue must stall because a needed value cannot be forwarded
  yet (load-use hazard): the issue stage asks the cycle's
  :class:`repro.cpu.forwarding.LatchView` for the blocked register, the
  same view every operand of the packet resolves from.

Wrongly inserted stalls are the failure mode the performance counters
are meant to catch, which is why the full forwarding test of Bernardi
et al. [19] folds the stall counters into the signature.
"""

from __future__ import annotations

from repro.isa.instructions import Instruction


def can_dual_issue(first: Instruction, second: Instruction) -> bool:
    """Structural + dependency rules for pairing two instructions.

    Slot 1 has only a plain ALU: memory, multiplier, branch and system
    instructions must occupy slot 0.  A branch or system instruction in
    slot 0 terminates the packet.  Intra-packet RAW and WAW dependencies
    split the packet (the dependent instruction issues one cycle later
    and receives its operand over the cross-pipe EX->EX path).
    """
    spec1 = second.spec
    if first.spec.issues_alone or spec1.issues_alone:
        return False
    if spec1.is_mem or spec1.is_mul:
        return False
    dests0 = first.dest_regs()
    for reg in second.source_regs():
        if reg in dests0:
            return False
    for reg in second.dest_regs():
        if reg in dests0:
            return False
    return True

