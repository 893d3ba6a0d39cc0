"""Consistency tests: the generated netlists must agree bit-for-bit with
the behavioural pipeline model on every recorded activation."""

import pytest

from repro.core import build_cache_wrapped
from repro.cpu.core import CORE_MODEL_A, CORE_MODEL_B, CORE_MODEL_C
from repro.faults.generators import get_modules
from repro.faults.observability import (
    forwarding_pattern_sets,
    hdcu_pattern_sets,
    icu_pattern_set,
)
from repro.faults.ppsfp import good_simulation
from repro.stl import RoutineContext
from repro.stl.routines import make_forwarding_routine, make_interrupt_routine
from repro.utils.bitops import bit as get_bit
from tests.conftest import run_program

MODELS = {0: CORE_MODEL_A, 1: CORE_MODEL_B, 2: CORE_MODEL_C}


def run_routine(core_id, routine):
    model = MODELS[core_id]
    ctx = RoutineContext.for_core(core_id, model)
    program = build_cache_wrapped(routine, 0x1000, ctx)
    soc, core = run_program(program, core_id=core_id, max_cycles=2_000_000)
    return core.log


def test_fault_lists_differ_between_a_and_b():
    a, b = get_modules(CORE_MODEL_A), get_modules(CORE_MODEL_B)
    assert a.forwarding_fault_count != b.forwarding_fault_count
    assert a.hdcu_fault_count != b.hdcu_fault_count


def test_core_c_forwarding_faults_roughly_double():
    a, c = get_modules(CORE_MODEL_A), get_modules(CORE_MODEL_C)
    ratio = c.forwarding_fault_count / a.forwarding_fault_count
    assert 1.6 < ratio < 2.6


def test_icu_status_width_by_model():
    assert len(get_modules(CORE_MODEL_A).icu.outputs["status"]) == 3
    assert len(get_modules(CORE_MODEL_C).icu.outputs["status"]) == 6


@pytest.mark.parametrize("core_id", [0, 2], ids=["coreA", "coreC"])
def test_forwarding_netlist_reproduces_selected_data(core_id):
    """For every pattern, the mux netlist's output must equal the data
    of the recorded select source."""
    model = MODELS[core_id]
    routine = make_forwarding_routine(model, with_pcs=False, patterns_per_path=1)
    log = run_routine(core_id, routine)
    modules = get_modules(model)
    pattern_sets = forwarding_pattern_sets(log, modules)
    assert pattern_sets
    width = 64 if model.is64 else 32
    for port, patterns in pattern_sets.items():
        nl = modules.forwarding[port]
        values = good_simulation(nl, patterns)
        out_nets = nl.outputs["out"]
        sel_nets = nl.inputs["sel"]
        data_nets = [nl.inputs[f"d{i}"] for i in range(5)]
        for t in range(patterns.num_patterns):
            select = next(
                i for i in range(5) if get_bit(patterns.inputs[sel_nets[i]], t)
            )
            expected = 0
            for j in range(width):
                expected |= get_bit(patterns.inputs[data_nets[select][j]], t) << j
            observed = 0
            for j in range(width):
                observed |= get_bit(values[out_nets[j]], t) << j
            assert observed == expected


@pytest.mark.parametrize("core_id", [0, 1], ids=["coreA", "coreB"])
def test_hdcu_netlist_reproduces_selects_and_stalls(core_id):
    model = MODELS[core_id]
    routine = make_forwarding_routine(model, with_pcs=True, patterns_per_path=1)
    log = run_routine(core_id, routine)
    modules = get_modules(model)
    pattern_sets = hdcu_pattern_sets(log, modules)
    records_by_port = {}
    for record in log.hdcu:
        if record.observable:
            records_by_port.setdefault((record.slot, record.operand), []).append(
                record
            )
    checked = 0
    for port, patterns in pattern_sets.items():
        nl = modules.hdcu[port]
        values = good_simulation(nl, patterns)
        sel_nets = nl.outputs["sel"]
        stall_net = nl.outputs["stall"][0]
        # Re-derive each unique pattern's expected select from a record
        # with the same stimulus.
        seen = {}
        for record in records_by_port.get(port, []):
            key = (
                record.consumer_reg,
                record.producer_regs,
                record.producer_valid,
                record.producer_load_mask,
            )
            if key in seen:
                continue
            seen[key] = record
        for t in range(patterns.num_patterns):
            consumer = sum(
                get_bit(patterns.inputs[nl.inputs["c"][i]], t) << i
                for i in range(5)
            )
            producers = tuple(
                sum(
                    get_bit(patterns.inputs[nl.inputs[f"p{k}"][i]], t) << i
                    for i in range(5)
                )
                for k in range(4)
            )
            valid = sum(
                get_bit(patterns.inputs[nl.inputs["valid"][i]], t) << i
                for i in range(4)
            )
            load = sum(
                get_bit(patterns.inputs[nl.inputs["load"][i]], t) << i
                for i in range(4)
            )
            record = seen.get((consumer, producers, valid, load))
            if record is None or record.stall:
                continue
            onehot = [get_bit(values[sel_nets[i]], t) for i in range(5)]
            assert sum(onehot) == 1
            assert onehot[int(record.select)] == 1
            assert get_bit(values[stall_net], t) == int(record.stall)
            checked += 1
    assert checked > 50


@pytest.mark.parametrize("core_id", [0, 2], ids=["coreA", "coreC"])
def test_icu_netlist_reproduces_status_mapping(core_id):
    model = MODELS[core_id]
    routine = make_interrupt_routine(model, windows=(0, 2, 4))
    log = run_routine(core_id, routine)
    modules = get_modules(model)
    patterns = icu_pattern_set(log, modules)
    assert patterns.num_patterns > 0
    nl = modules.icu
    values = good_simulation(nl, patterns)
    status_nets = nl.outputs["status"]
    event_nets = nl.inputs["e"]
    from repro.cpu.icu import Icu, IcuConfig

    icu = Icu(IcuConfig(shared_status_bits=model.icu_shared_status_bits))
    for t in range(patterns.num_patterns):
        event = next(
            e for e in range(6) if get_bit(patterns.inputs[event_nets[e]], t)
        )
        expected_bit = icu.map_event(event)
        observed = [get_bit(values[net], t) for net in status_nets]
        assert observed[expected_bit] == 1
        assert sum(observed) == 1


def test_icu_imp_and_count_paths():
    model = CORE_MODEL_A
    routine = make_interrupt_routine(model, windows=(0, 2, 4, 7))
    log = run_routine(0, routine)
    modules = get_modules(model)
    patterns = icu_pattern_set(log, modules)
    nl = modules.icu
    values = good_simulation(nl, patterns)
    imp_in = nl.inputs["imp"]
    imp_out = nl.outputs["imp_out"]
    for i in range(4):
        assert values[imp_out[i]] == patterns.inputs[imp_in[i]]
    # count_out = count_in + 1 (mod 16) whenever an event is present.
    count_in_nets = nl.inputs["count"]
    count_out_nets = nl.outputs["count_out"]
    for t in range(patterns.num_patterns):
        count_in = sum(
            get_bit(patterns.inputs[count_in_nets[i]], t) << i for i in range(4)
        )
        count_out = sum(
            get_bit(values[count_out_nets[i]], t) << i for i in range(4)
        )
        assert count_out == (count_in + 1) % 16
