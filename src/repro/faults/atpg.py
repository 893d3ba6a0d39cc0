"""Random-pattern ATPG: the achievable coverage ceiling of a netlist.

Section IV-C closes with "improvements of the already existing algorithm
for the forwarding logic would have been outside the scope of this
work" — i.e. the ~80 % cached coverage is a property of the *algorithm*,
not of the methodology.  This module quantifies that: it drives a
netlist with unconstrained random patterns (full observability) until
coverage saturates, yielding the ceiling an ideal software algorithm
could approach.  The gap between a routine's cache-based coverage and
this ceiling is the algorithm's headroom; the gap between the ceiling
and 100 % is structurally untestable logic (unobserved blocks, constant
inputs).

This is plain random-pattern ATPG with fault dropping — no structural
backtracking — which is entirely adequate for the shallow mux/compare
netlists modelled here.  Each round is one
:func:`~repro.faults.ppsfp.fault_simulate` call on the compiled kernel,
sharing one :class:`~repro.faults.ppsfp.DropSet` across rounds, so
running ATPG freezes the netlist like any other grading does.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.netlist import Netlist
from repro.faults.ppsfp import DropSet, PatternSet, fault_simulate
from repro.faults.stuckat import collapse_with_weights
from repro.utils.bitops import mask as bitmask
from repro.utils.rng import DeterministicRng


@dataclass(frozen=True)
class AtpgResult:
    """Outcome of a random-pattern ATPG run on one netlist."""

    module: str
    total_faults: int
    detected_faults: int
    patterns_applied: int
    rounds: int

    @property
    def ceiling_percent(self) -> float:
        if self.total_faults == 0:
            return 0.0
        return 100.0 * self.detected_faults / self.total_faults


def random_pattern_atpg(
    netlist: Netlist,
    seed: int = 0xA1B2,
    patterns_per_round: int = 256,
    max_rounds: int = 24,
    dry_rounds: int = 3,
    constrain=None,
) -> AtpgResult:
    """Estimate the netlist's random-pattern coverage ceiling.

    Applies rounds of random patterns with every output fully observable
    and drops detected faults; stops after ``dry_rounds`` consecutive
    rounds detect nothing new (or ``max_rounds``).

    ``constrain(inputs, rng, num_patterns)`` may rewrite the random
    input dict to keep patterns *functionally reachable* — e.g. the
    forwarding mux's select lines are one-hot over the steerable
    sources in any real execution, so an honest ceiling must not let
    random multi-hot selects light up the structurally dead columns.
    """
    rng = DeterministicRng(seed)
    weighted = collapse_with_weights(netlist)
    total = sum(weight for _, weight in weighted)
    drop_set = DropSet()
    detected = 0
    applied = 0
    dry = 0
    rounds = 0
    mask = bitmask(patterns_per_round)
    while detected < total and rounds < max_rounds and dry < dry_rounds:
        rounds += 1
        applied += patterns_per_round
        inputs = {
            net: _random_bits(rng, patterns_per_round)
            for net in netlist.input_nets
        }
        if constrain is not None:
            inputs = constrain(inputs, rng, patterns_per_round)
        patterns = PatternSet(
            num_patterns=patterns_per_round,
            inputs=inputs,
            output_observability={net: mask for net in netlist.output_nets},
        )
        result = fault_simulate(netlist, patterns, weighted, dropped=drop_set)
        dry = dry + 1 if result.detected_faults == detected else 0
        detected = result.detected_faults
    return AtpgResult(
        module=netlist.name,
        total_faults=total,
        detected_faults=detected,
        patterns_applied=applied,
        rounds=rounds,
    )


def _random_bits(rng: DeterministicRng, count: int) -> int:
    value = 0
    produced = 0
    while produced < count:
        value |= rng.next_u64() << produced
        produced += 64
    return value & bitmask(count)


def forwarding_select_constraint(netlist: Netlist):
    """Functional constraint for a forwarding-mux port: the select is
    one-hot over the five steerable sources and the extra (bypass)
    columns are never selected."""
    sel_nets = netlist.inputs["sel"]
    dead_nets = netlist.inputs.get("sel_x", [])

    def constrain(inputs: dict[int, int], rng: DeterministicRng, count: int):
        packed = [0] * len(sel_nets)
        for t in range(count):
            packed[rng.randint(0, len(sel_nets) - 1)] |= 1 << t
        for net, value in zip(sel_nets, packed):
            inputs[net] = value
        for net in dead_nets:
            inputs[net] = 0
        return inputs

    return constrain


def forwarding_ceiling(model, port=(0, 0), **kwargs) -> AtpgResult:
    """Functionally-constrained random-pattern ceiling of one
    forwarding-mux port."""
    from repro.faults.generators import get_modules

    modules = get_modules(model)
    netlist = modules.forwarding[port]
    kwargs.setdefault("constrain", forwarding_select_constraint(netlist))
    return random_pattern_atpg(netlist, **kwargs)
