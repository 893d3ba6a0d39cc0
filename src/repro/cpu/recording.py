"""Module-activation recorders.

Gate-level fault simulation in this reproduction works the way the
authors' flow does: a *logic simulation* (our pipeline run) is logged,
and the log is then fault-simulated against the module netlists.  The
recorders below capture, cycle by cycle, the input vectors actually
applied to the three targeted modules — the forwarding logic, the Hazard
Detection Control Unit and the ICU — together with per-pattern
observability information (is this activation inside the
signature-accumulating test window, and would a wrong value be
distinguishable at all).

The record classes are plain (not frozen) dataclasses: a run builds
hundreds of thousands of them and a frozen dataclass pays for every
field through ``object.__setattr__``.  Nothing mutates or hashes a
record once it is logged.

``observable`` follows the ``TESTWIN`` CSR: the cache-based wrapper sets
it around the *execution loop* only, so loading-loop activity exists in
the record (it shapes cache state) but cannot detect faults — exactly
the paper's rule that the first iteration must not contribute to the
signature.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class FwdSource(enum.IntEnum):
    """Forwarding-mux data inputs, in select order."""

    RF = 0
    EX0 = 1
    EX1 = 2
    MEM0 = 3
    MEM1 = 4


NUM_FWD_SOURCES = len(FwdSource)


@dataclass
class ForwardingRecord:
    """One resolution of one EX-stage operand through the forwarding muxes.

    Attributes:
        slot: issue slot of the consuming instruction (0 or 1).
        operand: operand port index (0 = first source, 1 = second).
        select: which mux input supplied the value.
        candidates: data value present on each of the 5 mux inputs
            (RF, EX0, EX1, MEM0, MEM1); absent producers contribute 0.
        valid_mask: bit i set when source i held a matching producer
            (RF is always valid).
        width: 32, or 64 on core C's extended datapath.
        observable: inside the signature window (TESTWIN = 1).
        observable_high: for 64-bit operands, whether the high word can
            reach the 32-bit signature through this use.
    """

    slot: int
    operand: int
    select: FwdSource
    candidates: tuple[int, int, int, int, int]
    valid_mask: int
    width: int = 32
    observable: bool = True
    observable_high: bool = False


@dataclass
class HdcuRecord:
    """One issue-time decision of the hazard-detection control unit.

    The comparator inputs are register indices of the consuming operand
    and of every in-flight producer; the outputs are the forwarding
    select and the stall request.  ``flip_visible_mask`` says, per
    alternative source, whether selecting it instead would have produced
    a different operand value (i.e. whether a select-line fault is
    observable through the datapath on this pattern).
    """

    consumer_reg: int
    producer_regs: tuple[int, int, int, int]
    producer_valid: int
    select: FwdSource
    stall: bool
    flip_visible_mask: int
    observable: bool = True
    stall_observable: bool = False
    #: Issue slot / operand port of the consumer (routes the pattern to
    #: the right replicated comparator block in the HDCU netlist).
    slot: int = 0
    operand: int = 0
    #: Bit i set when producer source i (EX0..MEM1) is a load whose data
    #: has not returned — the condition that forces a stall when that
    #: producer is the selected one.
    producer_load_mask: int = 0


@dataclass
class IcuRecord:
    """One ICU recognition as seen by the self-test procedure."""

    event_vector: int
    merged: bool
    imprecision: int
    status_bits: int
    observable: bool = True
    #: Recognition count before this recognition (exercises the ICU's
    #: counter-increment logic, read back through ICU_COUNT).
    count_before: int = 0


@dataclass
class ActivationLog:
    """All module activations captured during one pipeline run."""

    forwarding: list[ForwardingRecord] = field(default_factory=list)
    hdcu: list[HdcuRecord] = field(default_factory=list)
    icu: list[IcuRecord] = field(default_factory=list)

    def forwarded_path_set(self) -> set[tuple[int, int, FwdSource]]:
        """The set of (slot, operand, source) paths actually exercised
        with a non-RF forward inside the observable window — the paper's
        notion of which forwarding paths were excited."""
        return {
            (r.slot, r.operand, r.select)
            for r in self.forwarding
            if r.observable and r.select != FwdSource.RF
        }
