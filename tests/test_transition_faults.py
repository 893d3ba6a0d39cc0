"""Tests of the transition-delay fault model."""

from repro.faults import (
    TransitionFault,
    enumerate_transition_faults,
    transition_fault_simulate,
)
from repro.faults.gates import GateKind
from repro.faults.netlist import Netlist
from repro.faults.ppsfp import PatternSet


def buffer_netlist():
    nl = Netlist("buf")
    (a,) = nl.add_input_bus("a", 1)
    out = nl.add_gate(GateKind.BUF, a)
    nl.mark_output_bus("out", [out])
    return nl


def patterns_for(nl, values, observable=True):
    (a,) = nl.inputs["a"]
    out = nl.outputs["out"][0]
    packed = 0
    for t, v in enumerate(values):
        packed |= (v & 1) << t
    mask = (1 << len(values)) - 1
    return PatternSet(
        num_patterns=len(values),
        inputs={a: packed},
        output_observability={out: mask if observable else 0},
    )


def test_enumeration_two_per_net():
    nl = buffer_netlist()
    faults = enumerate_transition_faults(nl)
    assert len(faults) == 2 * nl.num_nets


def test_rising_transition_detected():
    nl = buffer_netlist()
    patterns = patterns_for(nl, [0, 1])  # launch 0->1 at t=1
    result = transition_fault_simulate(nl, patterns)
    detected_kinds = result.detected_faults
    # Slow-to-rise faults on both nets detected; slow-to-fall not.
    assert detected_kinds == 2


def test_falling_transition_detected():
    nl = buffer_netlist()
    patterns = patterns_for(nl, [1, 0])
    out = nl.outputs["out"][0]
    str_faults = [TransitionFault(out, True)]
    stf_faults = [TransitionFault(out, False)]
    assert transition_fault_simulate(nl, patterns, str_faults).detected_faults == 0
    assert transition_fault_simulate(nl, patterns, stf_faults).detected_faults == 1


def test_constant_stream_detects_nothing():
    nl = buffer_netlist()
    patterns = patterns_for(nl, [1, 1, 1, 1])
    result = transition_fault_simulate(nl, patterns)
    assert result.detected_faults == 0


def test_first_pattern_cannot_launch():
    """Pattern 0 has no predecessor: a '1' there is not a transition."""
    nl = buffer_netlist()
    patterns = patterns_for(nl, [1])
    result = transition_fault_simulate(nl, patterns)
    assert result.detected_faults == 0


def test_unobservable_capture_misses():
    nl = buffer_netlist()
    patterns = patterns_for(nl, [0, 1], observable=False)
    assert transition_fault_simulate(nl, patterns).detected_faults == 0


def test_transition_through_gate():
    nl = Netlist("and")
    a, b = nl.add_input_bus("in", 2)
    out = nl.add_gate(GateKind.AND, a, b)
    nl.mark_output_bus("out", [out])
    # a: 0 -> 1 with b held 1: the rise propagates and is captured.
    patterns = PatternSet(
        num_patterns=2,
        inputs={a: 0b10, b: 0b11},
        output_observability={out: 0b11},
    )
    faults = [TransitionFault(a, True), TransitionFault(a, False)]
    result = transition_fault_simulate(nl, patterns, faults)
    assert result.detected_faults == 1  # only the slow-to-rise


def test_ordered_pattern_sets_preserve_sequence():
    from repro.core import build_cache_wrapped
    from repro.cpu.core import CORE_MODEL_A
    from repro.faults import get_modules
    from repro.faults.observability import forwarding_pattern_sets
    from repro.stl import RoutineContext
    from repro.stl.routines import make_forwarding_routine
    from tests.conftest import run_program

    routine = make_forwarding_routine(
        CORE_MODEL_A, with_pcs=False, patterns_per_path=1
    )
    ctx = RoutineContext.for_core(0, CORE_MODEL_A)
    program = build_cache_wrapped(routine, 0x1000, ctx)
    _, core = run_program(program)
    modules = get_modules(CORE_MODEL_A)
    merged = forwarding_pattern_sets(core.log, modules)
    ordered = forwarding_pattern_sets(core.log, modules, ordered=True)
    for port in merged:
        assert ordered[port].num_patterns >= merged[port].num_patterns
    # Ordered pattern count equals the observable record count per port.
    per_port = {}
    for record in core.log.forwarding:
        if record.observable:
            key = (record.slot, record.operand)
            per_port[key] = per_port.get(key, 0) + 1
    for port, patterns in ordered.items():
        assert patterns.num_patterns == per_port[port]


def test_cached_beats_no_cache_for_delay_faults():
    from repro.core import build_cache_wrapped
    from repro.cpu.core import CORE_MODEL_A
    from repro.faults import module_coverage
    from repro.stl import RoutineContext
    from repro.stl.routines import make_forwarding_routine
    from tests.conftest import run_program

    routine = make_forwarding_routine(CORE_MODEL_A, with_pcs=False)
    ctx = RoutineContext.for_core(0, CORE_MODEL_A)
    plain = routine.build_single_core(0x1000, ctx)
    wrapped = build_cache_wrapped(routine, 0x1000, ctx)
    _, plain_core = run_program(plain, max_cycles=2_000_000)
    _, wrapped_core = run_program(wrapped, max_cycles=2_000_000)
    plain_cov = module_coverage("FWD-TDF", plain_core.log, CORE_MODEL_A)
    wrapped_cov = module_coverage("FWD-TDF", wrapped_core.log, CORE_MODEL_A)
    assert wrapped_cov.coverage_percent > plain_cov.coverage_percent
