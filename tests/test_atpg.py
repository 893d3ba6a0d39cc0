"""Tests of the random-pattern ATPG ceiling analysis."""

import pytest

from repro.cpu.core import CORE_MODEL_A, CORE_MODEL_B, CORE_MODEL_C
from repro.faults.atpg import (
    forwarding_ceiling,
    forwarding_select_constraint,
    random_pattern_atpg,
)
from repro.faults.gates import GateKind
from repro.faults.netlist import Netlist


def tiny_netlist():
    nl = Netlist("tiny")
    a, b = nl.add_input_bus("in", 2)
    out = nl.add_gate(GateKind.XOR, a, b)
    nl.mark_output_bus("out", [out])
    return nl


def test_fully_testable_netlist_reaches_100():
    result = random_pattern_atpg(tiny_netlist(), patterns_per_round=16)
    assert result.ceiling_percent == 100.0
    assert result.rounds >= 1


def test_unobserved_logic_caps_the_ceiling():
    nl = Netlist("capped")
    a, b = nl.add_input_bus("in", 2)
    seen = nl.add_gate(GateKind.AND, a, b)
    nl.add_gate(GateKind.OR, a, b)  # unobserved cone
    nl.mark_output_bus("out", [seen])
    result = random_pattern_atpg(nl)
    assert result.ceiling_percent < 100.0


def test_atpg_is_deterministic():
    first = random_pattern_atpg(tiny_netlist(), seed=7)
    second = random_pattern_atpg(tiny_netlist(), seed=7)
    assert first == second


def test_dry_round_early_stop():
    result = random_pattern_atpg(
        tiny_netlist(), patterns_per_round=64, max_rounds=24, dry_rounds=2
    )
    assert result.rounds < 24


def test_forwarding_constraint_keeps_selects_one_hot():
    from repro.faults.generators import get_modules
    from repro.utils.rng import DeterministicRng

    netlist = get_modules(CORE_MODEL_A).forwarding[(0, 0)]
    constrain = forwarding_select_constraint(netlist)
    inputs = {net: 0xFFFF for net in netlist.input_nets}
    constrained = constrain(inputs, DeterministicRng(5), 16)
    sel = [constrained[net] for net in netlist.inputs["sel"]]
    for t in range(16):
        assert sum((value >> t) & 1 for value in sel) == 1
    for net in netlist.inputs["sel_x"]:
        assert constrained[net] == 0


def test_routine_is_close_to_functional_ceiling():
    """The cached routine's ~80 % sits within a few percent of the
    ideal-algorithm ceiling — the paper's 'improving the algorithm was
    out of scope' context, quantified."""
    ceiling = forwarding_ceiling(CORE_MODEL_A).ceiling_percent
    # From the Table II campaign: the cache-based run reaches ~80 %.
    assert 75.0 < ceiling < 90.0


def test_unconstrained_ceiling_is_higher_than_functional():
    from repro.faults.generators import get_modules

    netlist = get_modules(CORE_MODEL_A).forwarding[(0, 0)]
    unconstrained = random_pattern_atpg(netlist)
    functional = forwarding_ceiling(CORE_MODEL_A)
    assert unconstrained.ceiling_percent > functional.ceiling_percent


#: Exact ``forwarding_ceiling`` outcome of every forwarding port, keyed
#: by (core model, port, patterns per round), as (detected, total,
#: rounds, patterns applied).  At the default 256 patterns the first
#: round already reaches the ceiling; at 16 it builds up over several
#: rounds, which only the rounds' shared DropSet makes cumulative.
CEILING_PIN = {
    ("A", (0, 0), 256): (1508, 1814, 4, 1024),
    ("A", (0, 1), 256): (1526, 1832, 4, 1024),
    ("A", (1, 0), 256): (1468, 1796, 4, 1024),
    ("A", (1, 1), 256): (1467, 1822, 4, 1024),
    ("B", (0, 0), 256): (1698, 2116, 4, 1024),
    ("B", (0, 1), 256): (1689, 2080, 4, 1024),
    ("B", (1, 0), 256): (1669, 2064, 4, 1024),
    ("B", (1, 1), 256): (1629, 2058, 4, 1024),
    ("C", (0, 0), 256): (2965, 3612, 4, 1024),
    ("C", (0, 1), 256): (2959, 3604, 4, 1024),
    ("C", (1, 0), 256): (2977, 3604, 4, 1024),
    ("C", (1, 1), 256): (2956, 3604, 4, 1024),
    ("A", (0, 0), 16): (1508, 1814, 8, 128),
    ("A", (0, 1), 16): (1526, 1832, 8, 128),
    ("A", (1, 0), 16): (1468, 1796, 8, 128),
    ("A", (1, 1), 16): (1467, 1822, 8, 128),
    ("B", (0, 0), 16): (1698, 2116, 8, 128),
    ("B", (0, 1), 16): (1689, 2080, 8, 128),
    ("B", (1, 0), 16): (1669, 2064, 8, 128),
    ("B", (1, 1), 16): (1629, 2058, 8, 128),
    ("C", (0, 0), 16): (2965, 3612, 10, 160),
    ("C", (0, 1), 16): (2959, 3604, 10, 160),
    ("C", (1, 0), 16): (2977, 3604, 10, 160),
    ("C", (1, 1), 16): (2956, 3604, 10, 160),
}

MODELS = {model.name: model for model in (CORE_MODEL_A, CORE_MODEL_B, CORE_MODEL_C)}


@pytest.mark.parametrize(
    "name, port, per_round",
    sorted(CEILING_PIN),
    ids=lambda v: "".join(map(str, v)) if isinstance(v, tuple) else str(v),
)
def test_forwarding_ceiling_matches_pin(name, port, per_round):
    result = forwarding_ceiling(MODELS[name], port, patterns_per_round=per_round)
    assert (
        result.detected_faults,
        result.total_faults,
        result.rounds,
        result.patterns_applied,
    ) == CEILING_PIN[name, port, per_round]
