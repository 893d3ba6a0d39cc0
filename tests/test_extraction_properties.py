"""Differential tests of pattern extraction against a per-bit reference.

``reference_*`` below are the straightforward builders: they expand
every record into a tuple of input bits, merge identical tuples (OR-ing
per-output observability flags) and repack into bigints.  The
production builders in ``repro.faults.observability`` must give equal
``PatternSet`` objects, field for field, on every log — including the
edge cases the scenario matrix rarely or never produces: candidate
words wider than the module, 32-bit records on the 64-bit core,
duplicates that differ only in observability, non-observable records,
HDCU stall decisions, merged ICU events whose recognition count wraps,
and empty logs.

Uses ``hypothesis`` when installed; otherwise the same random logs run
over seeded cases, so the suite is meaningful without the optional
dependency.
"""

from __future__ import annotations

import random

import pytest

from repro.cpu.core import CORE_MODEL_A, CORE_MODEL_C
from repro.cpu.recording import (
    ActivationLog,
    ForwardingRecord,
    FwdSource,
    HdcuRecord,
    IcuRecord,
)
from repro.faults.generators import ICU_FIELD_BITS, NUM_SOURCES, PORTS, get_modules
from repro.faults.observability import (
    forwarding_pattern_sets,
    hdcu_pattern_sets,
    icu_pattern_set,
)
from repro.faults.ppsfp import PatternSet
from repro.isa.instructions import NUM_EVENTS

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on minimal installs
    HAVE_HYPOTHESIS = False

SEEDS = tuple(range(12))
MODELS = (CORE_MODEL_A, CORE_MODEL_C)


# ----------------------------------------------------------------------
# Reference: per-bit expansion, tuple dedup, per-pattern dicts.
# ----------------------------------------------------------------------

def _bits(value: int, width: int) -> tuple[int, ...]:
    return tuple((value >> i) & 1 for i in range(width))


class _Reference:
    def __init__(self, ordered: bool = False):
        self.ordered = ordered
        self.index: dict[tuple, int] = {}
        self.stimuli: list[tuple] = []
        self.obs: list[dict[int, bool]] = []

    def add(self, stimulus: tuple, obs: dict[int, bool]) -> None:
        index = None if self.ordered else self.index.get(stimulus)
        if index is None:
            self.index[stimulus] = len(self.stimuli)
            self.stimuli.append(stimulus)
            self.obs.append(dict(obs))
            return
        merged = self.obs[index]
        for net, flag in obs.items():
            merged[net] = merged.get(net, False) or flag

    def build(self, input_nets: list[int]) -> PatternSet:
        inputs = {net: 0 for net in input_nets}
        for index, stimulus in enumerate(self.stimuli):
            for net, value in zip(input_nets, stimulus):
                if value:
                    inputs[net] |= 1 << index
        observability: dict[int, int] = {}
        for index, obs in enumerate(self.obs):
            for net, flag in obs.items():
                if flag:
                    observability[net] = observability.get(net, 0) | (1 << index)
        return PatternSet(len(self.stimuli), inputs, observability)


def reference_forwarding(log, modules, ordered=False):
    width = 64 if modules.model.is64 else 32
    accumulators = {port: _Reference(ordered) for port in PORTS}
    for record in log.forwarding:
        acc = accumulators.get((record.slot, record.operand))
        if not record.observable or acc is None:
            continue
        stimulus = tuple(int(i == record.select) for i in range(NUM_SOURCES))
        for candidate in record.candidates:
            stimulus += _bits(candidate, width)
        out = modules.forwarding[record.slot, record.operand].outputs["out"]
        high_ok = record.width == 64 and record.observable_high
        acc.add(stimulus, {out[j]: True for j in range(width) if j < 32 or high_ok})
    return {
        port: acc.build(modules.forwarding[port].input_nets)
        for port, acc in accumulators.items()
        if acc.stimuli
    }


def reference_hdcu(log, modules):
    accumulators = {port: _Reference() for port in PORTS}
    for record in log.hdcu:
        acc = accumulators.get((record.slot, record.operand))
        if not record.observable or acc is None:
            continue
        stimulus = _bits(record.consumer_reg, 5)
        for reg in record.producer_regs:
            stimulus += _bits(reg, 5)
        stimulus += _bits(record.producer_valid, 4)
        stimulus += _bits(record.producer_load_mask, 4)
        netlist = modules.hdcu[record.slot, record.operand]
        sel = netlist.outputs["sel"]
        obs: dict[int, bool] = {}
        if not record.stall:
            for i in range(NUM_SOURCES):
                if (record.flip_visible_mask >> i) & 1:
                    obs[sel[i]] = True
            if record.flip_visible_mask:
                obs[sel[int(record.select)]] = True
        obs[netlist.outputs["stall"][0]] = record.stall_observable
        acc.add(stimulus, obs)
    return {
        port: acc.build(modules.hdcu[port].input_nets)
        for port, acc in accumulators.items()
        if acc.stimuli
    }


def reference_icu(log, modules):
    acc = _Reference()
    obs = {
        net: True
        for bus in ("status", "imp_out", "count_out")
        for net in modules.icu.outputs[bus]
    }
    for record in log.icu:
        if not record.observable:
            continue
        events = [e for e in range(NUM_EVENTS) if (record.event_vector >> e) & 1]
        for index, event in enumerate(events):
            acc.add(
                tuple(int(e == event) for e in range(NUM_EVENTS))
                + _bits(record.imprecision, ICU_FIELD_BITS)
                + _bits(record.count_before + index, ICU_FIELD_BITS),
                obs,
            )
    return acc.build(modules.icu.input_nets)


def difference(actual: dict, expected: dict) -> str:
    """The first differing port and field, or '' when equal (kept short:
    the packed bigints make a full repr diff unreadably slow)."""
    for port in sorted(set(actual) | set(expected), key=str):
        mine, theirs = actual.get(port), expected.get(port)
        if mine is None or theirs is None:
            return f"port {port}: only in {'expected' if mine is None else 'actual'}"
        if mine.num_patterns != theirs.num_patterns:
            return f"port {port}: {mine.num_patterns} != {theirs.num_patterns} patterns"
        for name in ("inputs", "output_observability"):
            a, b = getattr(mine, name), getattr(theirs, name)
            for net in sorted(set(a) | set(b)):
                if a.get(net) != b.get(net):
                    return f"port {port}: {name}[{net}] {a.get(net)} != {b.get(net)}"
    return ""


def assert_matches_reference(log: ActivationLog) -> None:
    for model in MODELS:
        modules = get_modules(model)
        for ordered in (False, True):
            problem = difference(
                forwarding_pattern_sets(log, modules, ordered=ordered),
                reference_forwarding(log, modules, ordered),
            )
            assert not problem, f"FWD core {model.name} ordered={ordered}: {problem}"
        problem = difference(
            hdcu_pattern_sets(log, modules), reference_hdcu(log, modules)
        )
        assert not problem, f"HDCU core {model.name}: {problem}"
        problem = difference(
            {"icu": icu_pattern_set(log, modules)}, {"icu": reference_icu(log, modules)}
        )
        assert not problem, f"ICU core {model.name}: {problem}"


# ----------------------------------------------------------------------
# Random logs with many duplicates and every edge case.
# ----------------------------------------------------------------------

def random_word(rng: random.Random) -> int:
    """Mostly repeats from a small pool, sometimes wider than 64 bits."""
    return rng.choice((
        0, 1, 0xFFFF_FFFF, 0x1_0000_0000, 0xDEAD_BEEF_0000_0001,
        (1 << 64) | 7, (1 << 70) - 1, rng.getrandbits(rng.choice((8, 33, 72))),
    ))


def random_log(rng: random.Random, size: int = 30) -> ActivationLog:
    log = ActivationLog()
    for _ in range(size):
        log.forwarding.append(ForwardingRecord(
            slot=rng.randrange(2),
            operand=rng.randrange(2),
            select=FwdSource(rng.randrange(NUM_SOURCES)),
            candidates=tuple(random_word(rng) for _ in range(NUM_SOURCES)),
            valid_mask=rng.randrange(32),
            width=rng.choice((32, 64)),
            observable=rng.random() < 0.8,
            observable_high=rng.random() < 0.5,
        ))
        log.hdcu.append(HdcuRecord(
            consumer_reg=rng.choice((0, 3, 31, 33, rng.randrange(64))),
            producer_regs=tuple(rng.choice((0, 3, 35)) for _ in range(4)),
            producer_valid=rng.randrange(32),
            select=FwdSource(rng.randrange(NUM_SOURCES)),
            stall=rng.random() < 0.3,
            flip_visible_mask=rng.choice((0, 0, 1, 6, 31, 0x40, rng.randrange(128))),
            observable=rng.random() < 0.8,
            stall_observable=rng.random() < 0.5,
            slot=rng.randrange(2),
            operand=rng.randrange(2),
            producer_load_mask=rng.randrange(32),
        ))
        log.icu.append(IcuRecord(
            event_vector=rng.randrange(1 << (NUM_EVENTS + 1)),
            merged=rng.random() < 0.5,
            imprecision=rng.randrange(40),
            status_bits=rng.randrange(16),
            observable=rng.random() < 0.8,
            count_before=rng.choice((0, 5, 14, 15, 16, rng.randrange(40))),
        ))
    # Exact repeats with only the observability changed.
    for records, flags in (
        (log.forwarding, ("observable_high", "observable")),
        (log.hdcu, ("stall_observable", "stall", "observable")),
    ):
        for record in rng.sample(records, len(records) // 3):
            flag = rng.choice(flags)
            records.insert(
                rng.randrange(len(records) + 1),
                type(record)(**{**vars(record), flag: not getattr(record, flag)}),
            )
    return log


@pytest.mark.parametrize("seed", SEEDS)
def test_random_logs_match_reference(seed):
    assert_matches_reference(random_log(random.Random(seed)))


# ----------------------------------------------------------------------
# Directed edge cases.
# ----------------------------------------------------------------------

def fwd(candidates, width=32, observable=True, high=False, port=(0, 0)):
    return ForwardingRecord(
        *port, FwdSource.EX0, tuple(candidates), 0b11, width, observable, high
    )


def test_candidates_above_module_width_are_truncated():
    log = ActivationLog(forwarding=[
        fwd([5, 0, 0, 0, 1]),
        fwd([(1 << 32) | 5, 0, 0, 0, (1 << 64) | 1]),
        fwd([(1 << 64) | 5, 0, 0, 0, 1], width=64),
    ])
    assert_matches_reference(log)
    for model, distinct in ((CORE_MODEL_A, 1), (CORE_MODEL_C, 2)):
        patterns = forwarding_pattern_sets(log, get_modules(model))[0, 0]
        assert patterns.num_patterns == distinct


def test_high_word_observability():
    """The high outputs open only for 64-bit records with
    ``observable_high``; a 32-bit record on core C never opens them, and
    duplicates differing only in the flag merge into one pattern."""
    modules = get_modules(CORE_MODEL_C)
    out = modules.forwarding[0, 0].outputs["out"]
    narrow = ActivationLog(forwarding=[fwd([1, 2, 3, 4, 5], width=32, high=True)])
    assert_matches_reference(narrow)
    observability = forwarding_pattern_sets(narrow, modules)[0, 0].output_observability
    assert set(observability) == set(out[:32])
    merged = ActivationLog(forwarding=[
        fwd([1, 2, 3, 4, 5], width=64),
        fwd([1, 2, 3, 4, 5], width=64, high=True),
        fwd([1, 2, 3, 4, 5], width=64),
    ])
    assert_matches_reference(merged)
    patterns = forwarding_pattern_sets(merged, modules)[0, 0]
    assert patterns.num_patterns == 1
    assert patterns.output_observability[out[63]] == 1
    ordered = forwarding_pattern_sets(merged, modules, ordered=True)[0, 0]
    assert ordered.output_observability[out[63]] == 0b010
    assert ordered.output_observability[out[0]] == 0b111


def test_non_observable_records_are_skipped():
    log = ActivationLog(
        forwarding=[
            fwd([9, 9, 9, 9, 9], observable=False),
            fwd([1, 0, 0, 0, 0], port=(1, 1)),
        ],
        hdcu=[
            HdcuRecord(3, (3, 0, 0, 0), 1, FwdSource.EX0, False, 2, observable=False)
        ],
        icu=[IcuRecord(0b1, False, 0, 0, observable=False)],
    )
    assert_matches_reference(log)
    modules = get_modules(CORE_MODEL_A)
    assert set(forwarding_pattern_sets(log, modules)) == {(1, 1)}
    assert hdcu_pattern_sets(log, modules) == {}
    assert icu_pattern_set(log, modules).num_patterns == 0


def test_hdcu_stall_and_flip_observability_merge():
    base = dict(
        consumer_reg=3, producer_regs=(3, 0, 0, 0), producer_valid=1,
        select=FwdSource.EX0, producer_load_mask=1,
    )
    log = ActivationLog(hdcu=[
        HdcuRecord(**base, stall=True, flip_visible_mask=0b11, stall_observable=False),
        HdcuRecord(**base, stall=False, flip_visible_mask=0b100),
        HdcuRecord(**base, stall=True, flip_visible_mask=0, stall_observable=True),
        HdcuRecord(**{**base, "consumer_reg": 35}, stall=False, flip_visible_mask=64),
    ])
    assert_matches_reference(log)
    netlist = get_modules(CORE_MODEL_A).hdcu[0, 0]
    patterns = hdcu_pattern_sets(log, get_modules(CORE_MODEL_A))[0, 0]
    sel, (stall,) = netlist.outputs["sel"], netlist.outputs["stall"]
    # consumer_reg 35 truncates to 3: one key, every observability OR-ed.
    assert patterns.num_patterns == 1
    assert patterns.output_observability == {sel[1]: 1, sel[2]: 1, stall: 1}


def test_merged_icu_events_wrap_the_count_field():
    log = ActivationLog(icu=[
        IcuRecord(0b101101, True, 0x13, 0, count_before=14),
        IcuRecord(0b000001, False, 3, 0, count_before=30),
        IcuRecord(0b1000000, False, 3, 0, count_before=2),  # beyond NUM_EVENTS
    ])
    assert_matches_reference(log)
    # Events 0, 2, 3, 5 at counts 14, 15, 0, 1; the second record repeats
    # (event 0, imprecision 3, count 14).
    assert icu_pattern_set(log, get_modules(CORE_MODEL_A)).num_patterns == 4


def test_empty_logs():
    log = ActivationLog()
    assert_matches_reference(log)
    for model in MODELS:
        modules = get_modules(model)
        assert forwarding_pattern_sets(log, modules) == {}
        assert forwarding_pattern_sets(log, modules, ordered=True) == {}
        assert hdcu_pattern_sets(log, modules) == {}
        patterns = icu_pattern_set(log, modules)
        assert patterns.num_patterns == 0
        assert patterns.output_observability == {}
        assert set(patterns.inputs.values()) == {0}


# ----------------------------------------------------------------------
# The same property under hypothesis, when available.
# ----------------------------------------------------------------------

if HAVE_HYPOTHESIS:

    @settings(max_examples=40, deadline=None)
    @given(
        rng=st.randoms(use_true_random=False),
        size=st.integers(0, 40),
    )
    def test_hypothesis_logs_match_reference(rng, size):
        assert_matches_reference(random_log(rng, size))
