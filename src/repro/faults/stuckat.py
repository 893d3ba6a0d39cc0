"""Stuck-at fault enumeration and structural equivalence collapsing.

Faults are stem stuck-at-0/1 faults on every net (primary inputs and
gate outputs).  A light structural collapsing pass removes faults that
are provably equivalent to a fault on the driving gate's output through
a fanout-free unary gate (BUF keeps polarity, NOT swaps it) — the
classic rule subset that never merges observable classes incorrectly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.gates import GateKind
from repro.faults.netlist import Netlist


@dataclass(frozen=True)
class StuckAtFault:
    """One stuck-at fault: ``net`` forced to ``value`` (0 or 1)."""

    net: int
    value: int

    @property
    def stable_id(self) -> str:
        """Process-stable identity of the fault.

        :class:`~repro.faults.ppsfp.DropSet` keys its drop decisions on
        this string, so it must identify the fault uniquely and never
        change format silently.
        """
        return f"net{self.net}/SA{self.value}"

    def __str__(self) -> str:
        return self.stable_id


def enumerate_faults(netlist: Netlist) -> list[StuckAtFault]:
    """The uncollapsed stem fault list (2 faults per net)."""
    return [
        StuckAtFault(net, value)
        for net in range(netlist.num_nets)
        for value in (0, 1)
    ]


def collapse_faults(netlist: Netlist) -> list[StuckAtFault]:
    """Collapse through fanout-free BUF/NOT gates.

    A fault on the input of a fanout-free buffer is equivalent to the
    same-polarity fault on its output (inverted polarity for NOT), so
    only the output-side fault is kept.
    """
    return [fault for fault, _ in collapse_with_weights(netlist)]


def collapse_with_weights(netlist: Netlist) -> list[tuple[StuckAtFault, int]]:
    """Equivalence classes with their uncollapsed population size.

    Each returned (representative, weight) pair stands for ``weight``
    faults of the full uncollapsed list (2 per net).  Simulating the
    representative and crediting its weight reproduces the coverage the
    commercial flow reports over the complete fault universe, at the
    cost of one simulation per class.
    """
    fanout = netlist.fanout
    output_nets = set(netlist.output_nets)
    # Forward mapping through fanout-free unary gates, polarity-aware.
    forward: dict[tuple[int, int], tuple[int, int]] = {}
    for gate in netlist.gates:
        if gate.kind not in (GateKind.BUF, GateKind.NOT):
            continue
        if len(fanout.get(gate.a, ())) != 1 or gate.a in output_nets:
            continue
        flip = 1 if gate.kind is GateKind.NOT else 0
        forward[(gate.a, 0)] = (gate.out, flip)
        forward[(gate.a, 1)] = (gate.out, 1 - flip)

    def representative(net: int, value: int) -> tuple[int, int]:
        while (net, value) in forward:
            net, value = forward[(net, value)]
        return net, value

    weights: dict[tuple[int, int], int] = {}
    for fault in enumerate_faults(netlist):
        rep = representative(fault.net, fault.value)
        weights[rep] = weights.get(rep, 0) + 1
    return [
        (StuckAtFault(net, value), weight)
        for (net, value), weight in sorted(weights.items())
    ]
