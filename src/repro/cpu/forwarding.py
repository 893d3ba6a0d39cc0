"""The forwarding network: operand resolution and activation recording.

This module mirrors the *Forwarding Logic* of the paper's case-study
processor: "the multiplexers that directly feed and collect the results
produced by the different execution units" (Section IV-A).  Each EX
operand port of each issue slot is a 5:1 mux choosing between the
register file and four in-flight producers:

======  ==============================================================
source  meaning (distance in issue packets)
======  ==============================================================
RF      register file (producer retired, i.e. >= 3 packets away)
EX0/1   EX/MEM latch of pipe 0 / pipe 1 (producer 1 packet away)
MEM0/1  MEM/WB latch of pipe 0 / pipe 1 (producer 2 packets away)
======  ==============================================================

When bus contention delays a fetch, a consumer that would have issued
one packet after its producer instead issues three or more packets
later: the mux selects RF, the EX->EX path is *not excited*, and any
stuck-at fault on that path goes undetected — Fig. 1b of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.recording import FwdSource
from repro.cpu.state import RegFile
from repro.cpu.uop import Uop


@dataclass
class Resolution:
    """Result of resolving one architectural register at issue time."""

    value: int
    select: FwdSource
    ready: bool
    #: Value on each mux input (RF, EX0, EX1, MEM0, MEM1); 0 when absent.
    candidates: tuple[int, int, int, int, int]
    #: Bit i set when source i had a matching, ready producer.
    valid_mask: int


def _producer_in(stage: list[Uop], slot: int, reg: int) -> Uop | None:
    for uop in stage:
        if uop.slot == slot and reg in uop.dests:
            return uop
    return None


def resolve_register(
    reg: int,
    ex_source_latch: list[Uop],
    mem_source_latch: list[Uop],
    regfile: RegFile,
) -> Resolution:
    """Resolve one architectural register through the forwarding muxes.

    ``ex_source_latch`` holds the packet issued one cycle before the
    consumer (its result sits on the EX/MEM boundary: the EX->EX paths);
    ``mem_source_latch`` the packet issued two cycles before (MEM/WB
    boundary: the MEM->EX paths).  A producer three or more packets
    ahead has already written the register file when issue runs, so the
    plain RF read covers it — no forwarding path is excited, which is
    the paper's Fig. 1b broken-forwarding case.  Priority is
    youngest-first.  ``ready`` is False when the youngest matching
    producer is a load whose data has not returned yet: the issue logic
    must stall (the HDCU's "forwarding not possible" case).
    """
    rf_value = regfile.read(reg)
    candidates = [rf_value, 0, 0, 0, 0]
    valid_mask = 1  # RF is always a valid source.
    chosen: tuple[FwdSource, Uop] | None = None
    sources = (
        (FwdSource.EX0, ex_source_latch, 0),
        (FwdSource.EX1, ex_source_latch, 1),
        (FwdSource.MEM0, mem_source_latch, 0),
        (FwdSource.MEM1, mem_source_latch, 1),
    )
    for source, stage, slot in sources:
        producer = _producer_in(stage, slot, reg)
        if producer is None:
            continue
        if not producer.result_ready:
            if chosen is None:
                return Resolution(0, source, False, tuple(candidates), valid_mask)
            continue
        candidates[int(source)] = producer.dest_value(reg)
        valid_mask |= 1 << int(source)
        if chosen is None:
            chosen = (source, producer)
    if reg == 0:
        return Resolution(0, FwdSource.RF, True, tuple(candidates), valid_mask)
    if chosen is None:
        return Resolution(rf_value, FwdSource.RF, True, tuple(candidates), valid_mask)
    source, producer = chosen
    return Resolution(
        producer.dest_value(reg), source, True, tuple(candidates), valid_mask
    )


#: HDCU summary of empty producer latches.
_NO_PRODUCERS = ((0, 0, 0, 0), 0, 0)


class LatchView:
    """The producer latches as the forwarding muxes and the HDCU see them
    during one issue cycle.

    Neither latch nor the register file changes between slot-0 and
    slot-1 issue (a packet whose first instruction could change them
    ends at slot 0), so the core scans the latches once per issue cycle
    instead of once per operand:

    * ``producers`` maps each register to its ``(source, uop)`` entries
      in EX0, EX1, MEM0, MEM1 order — per source the first uop of that
      slot writing the register, which is the one :func:`_producer_in`
      finds;
    * ``summary`` is the HDCU comparator input ``(producer_regs,
      producer_valid, producer_load_mask)``: position ``source - 1``
      holds the first destination register of the first writing uop of
      that slot, a valid bit when such a uop exists, and a load bit when
      a uop of that slot is a load whose data has not returned.

    :meth:`resolve` answers exactly what :func:`resolve_register` answers
    for the same latches, as a ``(value, select, ready, candidates,
    valid_mask)`` tuple in :class:`Resolution` field order.
    """

    __slots__ = ("regfile", "producers", "summary")

    def __init__(
        self,
        ex_source_latch: list[Uop],
        mem_source_latch: list[Uop],
        regfile: RegFile,
    ):
        self.regfile = regfile
        producers: dict[int, list[tuple[FwdSource, Uop]]] = {}
        self.producers = producers
        if not ex_source_latch and not mem_source_latch:
            self.summary = _NO_PRODUCERS
            return
        regs = [0, 0, 0, 0]
        valid = 0
        loads = 0
        for source, slot, stage in (
            (FwdSource.EX0, 0, ex_source_latch),
            (FwdSource.EX1, 1, ex_source_latch),
            (FwdSource.MEM0, 0, mem_source_latch),
            (FwdSource.MEM1, 1, mem_source_latch),
        ):
            bit = 1 << (source - 1)
            for uop in stage:
                if uop.slot != slot:
                    continue
                dests = uop.dests
                if dests and not valid & bit:
                    regs[source - 1] = dests[0]
                    valid |= bit
                if uop.is_load and not uop.result_ready:
                    loads |= bit
                for reg in dests:
                    entries = producers.setdefault(reg, [])
                    if not entries or entries[-1][0] is not source:
                        entries.append((source, uop))
        self.summary = (tuple(regs), valid, loads)

    def resolve(
        self, reg: int
    ) -> tuple[int, FwdSource, bool, tuple[int, int, int, int, int], int]:
        """Resolve ``reg`` through the forwarding muxes (see
        :func:`resolve_register` for the priority and readiness rules)."""
        rf_value = self.regfile.read(reg)
        entries = self.producers.get(reg)
        if entries is None:
            value = rf_value if reg else 0
            return value, FwdSource.RF, True, (rf_value, 0, 0, 0, 0), 1
        candidates = [rf_value, 0, 0, 0, 0]
        valid_mask = 1
        chosen = None
        chosen_value = 0
        for source, producer in entries:
            if not producer.result_ready:
                if chosen is None:
                    return 0, source, False, tuple(candidates), valid_mask
                continue
            value = producer.dest_value(reg)
            candidates[source] = value
            valid_mask |= 1 << source
            if chosen is None:
                chosen = source
                chosen_value = value
        if reg == 0:
            return 0, FwdSource.RF, True, tuple(candidates), valid_mask
        return chosen_value, chosen, True, tuple(candidates), valid_mask

    def blocked_register(self, regs: tuple[int, ...]) -> int:
        """The last of ``regs`` that a producer without data still owes
        (0 when none is blocked, since r0 is never a destination).

        Issue stalls on a nonzero answer for either slot, and an HDCU
        stall records that register."""
        blocked = 0
        for reg in regs:
            for _, producer in self.producers.get(reg, ()):
                if not producer.result_ready:
                    blocked = reg
                    break
        return blocked
