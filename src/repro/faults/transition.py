"""Transition-delay fault model (the paper's future-work direction).

The conclusion of the paper notes that the multi-core determinism
problem "might be further emphasized with delay faults which require
test patterns applied in a timed sequence".  This module implements
that extension: transition faults (slow-to-rise / slow-to-fall) on
every net, graded against the *temporally ordered* activation patterns
of a run.

A slow-to-rise fault on net ``n`` is detected by a pattern pair
(t-1, t) where the good value of ``n`` rises at *t* (launch) and the
stale value — the fault holds the previous cycle's value — propagates
to an observable output at *t* (capture).  With packed patterns the
launch set is one bigint expression::

    rise  =  good & ~(good << 1)      (bit t set: 0 -> 1 at t)
    fall  = ~good &  (good << 1)      (bit t set: 1 -> 0 at t)

and the faulty site value is simply ``good ^ launch`` (only the
launched bits are late), so the stuck-at cone propagation is reused
unchanged.

Consecutive activations of a module port are treated as consecutive
applied vectors; pattern 0 has no predecessor and can only capture.
This is exactly why ordered (non-deduplicated) pattern sets are
required: a fault-coverage figure for delay faults is only meaningful
if the launch/capture adjacency of the run is preserved — which is the
property multi-core bus contention destroys.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.netlist import Netlist
from repro.faults.ppsfp import DropSet, FaultSimResult, PatternSet, _propagator


@dataclass(frozen=True)
class TransitionFault:
    """A slow-to-rise (``rising=True``) or slow-to-fall fault on a net."""

    net: int
    rising: bool

    @property
    def stable_id(self) -> str:
        """Process-stable identity of the fault (same contract as
        :attr:`StuckAtFault.stable_id`)."""
        kind = "STR" if self.rising else "STF"
        return f"net{self.net}/{kind}"

    def __str__(self) -> str:
        return self.stable_id


#: Every fault :func:`enumerate_transition_faults` has handed out:
#: entries ``2n`` and ``2n + 1`` are net ``n``'s slow-to-rise and
#: slow-to-fall faults.  Grows on demand, shared by every netlist.
_INTERNED: list[TransitionFault] = []


def enumerate_transition_faults(netlist: Netlist) -> list[TransitionFault]:
    """Two transition faults per net (uncollapsed), in net order.

    The list is fresh but its faults are interned, so grading a port
    once per core run does not rebuild ``2 * num_nets`` values.
    """
    for net in range(len(_INTERNED) // 2, netlist.num_nets):
        _INTERNED.append(TransitionFault(net, True))
        _INTERNED.append(TransitionFault(net, False))
    return _INTERNED[: 2 * netlist.num_nets]


def transition_fault_simulate(
    netlist: Netlist,
    patterns: PatternSet,
    faults: list[TransitionFault] | None = None,
    *,
    engine: str = "compiled",
    dropped: DropSet | None = None,
) -> FaultSimResult:
    """Grade transition faults against an *ordered* pattern set.

    The pattern set must preserve the run's temporal order (build it
    with ``ordered=True``); a deduplicated set would invent adjacencies
    that never happened on the hardware.

    ``engine``/``dropped`` behave exactly as on
    :func:`repro.faults.ppsfp.fault_simulate`: the compiled kernel is
    bit-identical to the interpreted path, and a :class:`DropSet`
    credits already-detected faults without re-simulating them.
    """
    good, propagate = _propagator(netlist, patterns, engine)
    if faults is None:
        faults = enumerate_transition_faults(netlist)
    mask = patterns.mask
    detected = 0
    for fault in faults:
        if dropped is not None and fault.stable_id in dropped:
            detected += 1
            continue
        value = good[fault.net]
        previous = (value << 1) & mask
        if fault.rising:
            launch = value & ~previous & mask & ~1
        else:
            launch = ~value & previous & mask
        if not launch:
            continue
        if propagate(fault.net, value ^ launch):
            detected += 1
            if dropped is not None:
                dropped.add(fault.stable_id)
    return FaultSimResult(
        module=f"{netlist.name}:transition",
        total_faults=len(faults),
        detected_faults=detected,
        num_patterns=patterns.num_patterns,
    )
