"""Tests of fault enumeration, collapsing and the PPSFP simulator —
including a brute-force cross-check on random netlists."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.gates import GateKind, eval_gate
from repro.faults.netlist import Netlist
from repro.faults.ppsfp import PatternSet, fault_simulate, good_simulation
from repro.faults.stuckat import (
    collapse_faults,
    collapse_with_weights,
    enumerate_faults,
)


def simple_and() -> Netlist:
    nl = Netlist("and2")
    a, b = nl.add_input_bus("in", 2)
    out = nl.add_gate(GateKind.AND, a, b)
    nl.mark_output_bus("out", [out])
    return nl


def test_enumerate_counts():
    nl = simple_and()
    faults = enumerate_faults(nl)
    assert len(faults) == 2 * nl.num_nets == 6


def test_collapse_weights_sum_to_uncollapsed_population():
    nl = Netlist("chain")
    (a,) = nl.add_input_bus("a", 1)
    end = nl.buffer_chain(a, 4)
    nl.mark_output_bus("out", [end])
    weighted = collapse_with_weights(nl)
    assert sum(w for _, w in weighted) == 2 * nl.num_nets
    # The whole chain collapses onto the final net: 2 classes remain.
    assert len(weighted) == 2
    assert all(fault.net == end for fault, _ in weighted)


def test_collapse_through_not_swaps_polarity():
    nl = Netlist("inv")
    (a,) = nl.add_input_bus("a", 1)
    out = nl.add_gate(GateKind.NOT, a)
    nl.mark_output_bus("out", [out])
    weighted = dict(
        ((f.net, f.value), w) for f, w in collapse_with_weights(nl)
    )
    # a/SA0 == out/SA1 and vice versa.
    assert weighted[(out, 0)] == 2
    assert weighted[(out, 1)] == 2


def test_collapse_keeps_fanout_stems():
    nl = Netlist("fan")
    (a,) = nl.add_input_bus("a", 1)
    buf = nl.add_gate(GateKind.BUF, a)
    other = nl.add_gate(GateKind.NOT, a)  # a has fanout 2: no collapse
    nl.mark_output_bus("out", [buf, other])
    nets = {f.net for f in collapse_faults(nl)}
    assert a in nets


def test_and_gate_detection():
    nl = simple_and()
    a, b = nl.inputs["in"]
    out = nl.outputs["out"][0]
    # One pattern: a=1, b=1 (out=1), fully observable.
    patterns = PatternSet(
        num_patterns=1, inputs={a: 1, b: 1}, output_observability={out: 1}
    )
    result = fault_simulate(nl, patterns, enumerate_faults(nl))
    # Detectable with a=b=1: every SA0 (3 faults).  SA1s need a 0 input.
    assert result.detected_faults == 3
    # Adding a=0,b=1 detects a/SA1 and out/SA1 too.
    patterns = PatternSet(
        num_patterns=2, inputs={a: 0b01, b: 0b11},
        output_observability={out: 0b11},
    )
    result = fault_simulate(nl, patterns, enumerate_faults(nl))
    assert result.detected_faults == 5


def test_unobservable_pattern_detects_nothing():
    nl = simple_and()
    a, b = nl.inputs["in"]
    out = nl.outputs["out"][0]
    patterns = PatternSet(
        num_patterns=1, inputs={a: 1, b: 1}, output_observability={out: 0}
    )
    result = fault_simulate(nl, patterns, enumerate_faults(nl))
    assert result.detected_faults == 0


def test_weighted_totals():
    nl = Netlist("wchain")
    (a,) = nl.add_input_bus("a", 1)
    end = nl.buffer_chain(a, 3)
    nl.mark_output_bus("out", [end])
    patterns = PatternSet(
        num_patterns=2, inputs={a: 0b01}, output_observability={end: 0b11}
    )
    result = fault_simulate(nl, patterns)  # weighted classes by default
    assert result.total_faults == 2 * nl.num_nets
    assert result.detected_faults == result.total_faults  # both polarities seen


@st.composite
def random_netlists(draw):
    nl = Netlist("rand")
    inputs = nl.add_input_bus("in", draw(st.integers(min_value=2, max_value=4)))
    nets = list(inputs)
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        kind = draw(st.sampled_from(list(GateKind)))
        a = draw(st.sampled_from(nets))
        b = draw(st.sampled_from(nets))
        nets.append(nl.add_gate(kind, a, b))
    nl.mark_output_bus("out", nets[-2:])
    return nl


def _brute_force_detected(nl, patterns):
    """Oracle: full netlist re-simulation per fault, no cone pruning."""
    mask = patterns.mask
    good = good_simulation(nl, patterns)
    input_nets = set(nl.input_nets)
    detected = set()
    for fault in enumerate_faults(nl):
        forced = 0 if fault.value == 0 else mask
        sim = [0] * nl.num_nets
        for net, value in patterns.inputs.items():
            sim[net] = value & mask
        if fault.net in input_nets:
            sim[fault.net] = forced
        for gate in nl.gates:
            b = sim[gate.b] if gate.b >= 0 else 0
            out = eval_gate(gate.kind, sim[gate.a], b, mask)
            sim[gate.out] = forced if gate.out == fault.net else out
        for net, obs in patterns.output_observability.items():
            if (sim[net] ^ good[net]) & obs:
                detected.add((fault.net, fault.value))
                break
    return detected


@settings(max_examples=40, deadline=None)
@given(random_netlists(), st.data())
def test_ppsfp_matches_brute_force(nl, data):
    num_patterns = data.draw(st.integers(min_value=1, max_value=6))
    mask = (1 << num_patterns) - 1
    inputs = {
        net: data.draw(st.integers(min_value=0, max_value=mask))
        for net in nl.input_nets
    }
    obs = {net: mask for net in nl.output_nets}
    patterns = PatternSet(
        num_patterns=num_patterns, inputs=inputs, output_observability=obs
    )
    faults = enumerate_faults(nl)
    result = fault_simulate(nl, patterns, faults)
    oracle = _brute_force_detected(nl, patterns)
    assert result.detected_faults == len(oracle)
