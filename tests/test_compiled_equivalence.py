"""Differential compiled-vs-interpreted equivalence for every fault model.

The compiled kernel (:mod:`repro.faults.compiled`) is a pure
performance substitution: levelized arrays, critical path tracing,
cached stem cones — but not one reported number may move.  These tests pin that
contract against the interpreted reference path for the three fault
models (uncollapsed stuck-at, weighted PPSFP, transition-delay), on
real module netlists, seeded random ones and hand-built corners of the
tracing rules, with and without
fault dropping (also carried across disjoint fault subsets), and end
to end through the campaign graded by each engine in turn.
"""

import functools
import pickle
import random

import pytest

import repro.faults.campaign as campaign
from repro.core.determinism import Scenario, run_scenario
from repro.cpu.core import CORE_MODEL_A
from repro.errors import FaultModelError
from repro.faults import (
    DropSet,
    compiled_for,
    fault_simulate,
    get_modules,
    run_parallel_checkpointed_campaign,
)
from repro.faults.gates import UNARY, GateKind
from repro.faults.netlist import Netlist
from repro.faults.observability import forwarding_pattern_sets
from repro.faults.ppsfp import PatternSet
from repro.faults.stuckat import collapse_with_weights, enumerate_faults
from repro.faults.transition import (
    enumerate_transition_faults,
    transition_fault_simulate,
)
from repro.faults.workload import DEFAULT_CAMPAIGN_MODELS, small_provider
from repro.soc import CodeAlignment, CodePosition

SHARD_COUNTS = (1, 2, 7, 16)
SEEDS = tuple(range(6))

SCENARIOS = (
    Scenario((0, 1), CodePosition.LOW, CodeAlignment.QWORD),
    Scenario((0, 1), CodePosition.MID, CodeAlignment.WORD),
)


@pytest.fixture(scope="module")
def fwd_port():
    """One forwarding port's netlist + merged and ordered pattern sets
    from a real (small) two-core run."""
    builders = small_provider()()
    result = run_scenario(builders, SCENARIOS[0])
    modules = get_modules(CORE_MODEL_A)
    log = result.per_core[0].log
    merged = forwarding_pattern_sets(log, modules)
    ordered = forwarding_pattern_sets(log, modules, ordered=True)
    port = sorted(merged)[0]
    return modules.forwarding[port], merged[port], ordered[port]


def as_tuple(result):
    return (
        result.module,
        result.total_faults,
        result.detected_faults,
        result.num_patterns,
    )


def random_netlist(seed: int, num_inputs: int = 8, num_gates: int = 60) -> Netlist:
    """A seeded random feed-forward netlist with every gate kind."""
    rng = random.Random(seed)
    netlist = Netlist(f"rand{seed}")
    netlist.add_input_bus("in", num_inputs)
    nets = list(netlist.input_nets)
    kinds = list(GateKind)
    for _ in range(num_gates):
        kind = rng.choice(kinds)
        if kind in UNARY:
            out = netlist.add_gate(kind, rng.choice(nets))
        else:
            out = netlist.add_gate(kind, rng.choice(nets), rng.choice(nets))
        nets.append(out)
    internal = nets[num_inputs:]
    netlist.mark_output_bus("out", rng.sample(internal, k=min(6, len(internal))))
    return netlist


def random_patterns(
    netlist: Netlist, seed: int, num_patterns: int = 37, internal_obs: bool = False
) -> PatternSet:
    """Seeded stimulus + observability.  ``internal_obs`` additionally
    observes nets that feed no output, which defeats the compiled
    engine's truncated-cone fast path and forces the full-cone walk."""
    rng = random.Random(seed + 9000)
    inputs = {net: rng.getrandbits(num_patterns) for net in netlist.input_nets}
    observability = {
        net: rng.getrandbits(num_patterns) for net in netlist.output_nets
    }
    if internal_obs:
        gate_outs = [g.out for g in netlist.gates if g.out not in observability]
        for net in rng.sample(gate_outs, k=min(4, len(gate_outs))):
            observability[net] = rng.getrandbits(num_patterns)
    return PatternSet(num_patterns, inputs, observability)


def exhaustive_patterns(netlist: Netlist, observability: dict) -> PatternSet:
    """Every input combination once: pattern t drives input i with bit
    i of t."""
    num_patterns = 1 << len(netlist.input_nets)
    inputs = {
        net: sum(1 << t for t in range(num_patterns) if t >> i & 1)
        for i, net in enumerate(netlist.input_nets)
    }
    return PatternSet(num_patterns, inputs, observability)


def internal_observed_fanout_free() -> tuple[Netlist, PatternSet]:
    """An observed net with one reader, inside a slice that reaches no
    output net, so the truncated cones cannot be used.  The reader is
    observed only on pattern 0, where its side input blocks the net, so
    the net's faults show through its own observation alone."""
    netlist = Netlist("internal-obs")
    a, b, c, d = netlist.add_input_bus("in", 4)
    inner = netlist.add_gate(GateKind.AND, a, b)
    dead = netlist.add_gate(GateKind.AND, inner, c)
    out = netlist.add_gate(GateKind.OR, c, d)
    netlist.mark_output_bus("out", [out])
    return netlist, exhaustive_patterns(
        netlist, {inner: 0xA5A5, dead: 0x0001, out: 0x0FF0}
    )


def same_net_on_both_inputs() -> tuple[Netlist, PatternSet]:
    """Gates reading one net on both inputs: fanout 2, so a stem."""
    netlist = Netlist("same-net")
    a, b, c = netlist.add_input_bus("in", 3)
    x = netlist.add_gate(GateKind.OR, a, b)
    y = netlist.add_gate(GateKind.XOR, x, x)
    w = netlist.add_gate(GateKind.NOR, c, c)
    z = netlist.add_gate(GateKind.AND, w, x)
    netlist.mark_output_bus("out", [y, z])
    return netlist, exhaustive_patterns(netlist, {y: 0xFF, z: 0x5A})


def reconvergent_xor() -> tuple[Netlist, PatternSet]:
    """A stem reconverging into an XOR, where its two flips cancel: the
    stem's faults are undetectable although each branch's are not."""
    netlist = Netlist("reconvergent")
    a, b = netlist.add_input_bus("in", 2)
    p = netlist.add_gate(GateKind.BUF, a)
    n = netlist.add_gate(GateKind.NOT, a)
    r = netlist.add_gate(GateKind.XOR, p, n)
    s = netlist.add_gate(GateKind.AND, r, b)
    t = netlist.add_gate(GateKind.NAND, s, a)
    netlist.mark_output_bus("out", [s, t])
    return netlist, exhaustive_patterns(netlist, {s: 0xE, t: 0x5})


DIRECTED = (internal_observed_fanout_free, same_net_on_both_inputs, reconvergent_xor)


# ----------------------------------------------------------------------
# Good simulation: the compiled per-kind batched sweep is bit-identical.
# ----------------------------------------------------------------------


def test_good_simulation_matches_on_real_module(fwd_port):
    netlist, patterns, _ = fwd_port
    compiled = compiled_for(netlist)
    assert compiled.evaluate(patterns.inputs, patterns.mask) == netlist.evaluate(
        patterns.inputs, patterns.mask
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_good_simulation_matches_on_random_netlists(seed):
    netlist = random_netlist(seed)
    patterns = random_patterns(netlist, seed)
    compiled = compiled_for(netlist)
    assert compiled.evaluate(patterns.inputs, patterns.mask) == netlist.evaluate(
        patterns.inputs, patterns.mask
    )


# ----------------------------------------------------------------------
# Three fault models on a real module netlist.
# ----------------------------------------------------------------------


def test_stuckat_engines_agree_on_real_module(fwd_port):
    netlist, patterns, _ = fwd_port
    faults = enumerate_faults(netlist)
    compiled = fault_simulate(netlist, patterns, faults, engine="compiled")
    interpreted = fault_simulate(netlist, patterns, faults, engine="interpreted")
    assert as_tuple(compiled) == as_tuple(interpreted)


def test_weighted_ppsfp_engines_agree_on_real_module(fwd_port):
    netlist, patterns, _ = fwd_port
    weighted = collapse_with_weights(netlist)
    compiled = fault_simulate(netlist, patterns, weighted, engine="compiled")
    interpreted = fault_simulate(netlist, patterns, weighted, engine="interpreted")
    assert as_tuple(compiled) == as_tuple(interpreted)
    assert compiled.total_faults == 2 * netlist.num_nets


def test_transition_engines_agree_on_real_module(fwd_port):
    netlist, _, ordered = fwd_port
    faults = enumerate_transition_faults(netlist)
    compiled = transition_fault_simulate(netlist, ordered, faults, engine="compiled")
    interpreted = transition_fault_simulate(
        netlist, ordered, faults, engine="interpreted"
    )
    assert as_tuple(compiled) == as_tuple(interpreted)


def test_unknown_engine_rejected(fwd_port):
    netlist, patterns, _ = fwd_port
    with pytest.raises(FaultModelError, match="unknown engine"):
        fault_simulate(netlist, patterns, engine="jit")


@pytest.mark.parametrize("engine", ("compiled", "interpreted"))
@pytest.mark.parametrize("kernel", (fault_simulate, transition_fault_simulate))
@pytest.mark.parametrize("unknown", ("past-end", "negative"))
def test_observability_on_unknown_net_rejected(unknown, kernel, engine):
    """Both kernels refuse a pattern set observing a net the netlist
    does not have, under either engine (a negative net would otherwise
    observe the last net under the compiled engine only)."""
    netlist = random_netlist(5)
    patterns = random_patterns(netlist, 5)
    net = netlist.num_nets if unknown == "past-end" else -1
    patterns.output_observability[net] = patterns.mask
    with pytest.raises(FaultModelError, match="unknown net"):
        kernel(netlist, patterns, engine=engine)


# ----------------------------------------------------------------------
# Seeded random netlists, truncated and full-cone observability.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("internal_obs", (False, True))
def test_random_netlists_stuckat_equivalence(seed, internal_obs):
    netlist = random_netlist(seed)
    patterns = random_patterns(netlist, seed, internal_obs=internal_obs)
    compiled = compiled_for(netlist)
    # internal_obs observes nets outside the output cone, which must
    # disable truncation (the fast path would miss those detections).
    assert compiled.can_truncate(patterns.output_observability) == (not internal_obs)
    faults = enumerate_faults(netlist)
    assert as_tuple(
        fault_simulate(netlist, patterns, faults, engine="compiled")
    ) == as_tuple(fault_simulate(netlist, patterns, faults, engine="interpreted"))


@pytest.mark.parametrize("seed", SEEDS)
def test_random_netlists_transition_equivalence(seed):
    netlist = random_netlist(seed)
    patterns = random_patterns(netlist, seed)
    faults = enumerate_transition_faults(netlist)
    assert as_tuple(
        transition_fault_simulate(netlist, patterns, faults, engine="compiled")
    ) == as_tuple(
        transition_fault_simulate(netlist, patterns, faults, engine="interpreted")
    )


@pytest.mark.parametrize("build", DIRECTED, ids=lambda build: build.__name__)
def test_directed_netlists_engines_agree(build):
    """Hand-built corners of critical path tracing: an observed net with
    one reader outside the output cone, a gate reading one net twice,
    and reconvergent fanout whose flips cancel in an XOR."""
    netlist, patterns = build()
    truncates = compiled_for(netlist).can_truncate(patterns.output_observability)
    assert truncates == (build is not internal_observed_fanout_free)
    for kernel, faults in (
        (fault_simulate, enumerate_faults(netlist)),
        (transition_fault_simulate, enumerate_transition_faults(netlist)),
    ):
        compiled = kernel(netlist, patterns, faults, engine="compiled")
        interpreted = kernel(netlist, patterns, faults, engine="interpreted")
        assert as_tuple(compiled) == as_tuple(interpreted)
        assert compiled.detected_faults


# ----------------------------------------------------------------------
# Fault dropping: neutral within a call, cumulative across calls,
# identical across engines and across fault-list splits.
# ----------------------------------------------------------------------


def test_dropping_is_neutral_within_one_call(fwd_port):
    netlist, patterns, _ = fwd_port
    faults = enumerate_faults(netlist)
    plain = fault_simulate(netlist, patterns, faults)
    for engine in ("compiled", "interpreted"):
        dropped = DropSet()
        dropping = fault_simulate(
            netlist, patterns, faults, engine=engine, dropped=dropped
        )
        assert as_tuple(dropping) == as_tuple(plain)
        assert len(dropped) == plain.detected_faults


def test_engines_record_identical_drop_sets(fwd_port):
    netlist, patterns, _ = fwd_port
    faults = enumerate_faults(netlist)
    sets = {}
    for engine in ("compiled", "interpreted"):
        dropped = DropSet()
        fault_simulate(netlist, patterns, faults, engine=engine, dropped=dropped)
        sets[engine] = dropped.detected
    assert sets["compiled"] == sets["interpreted"]


def test_predetected_faults_are_credited_not_resimulated(fwd_port):
    netlist, patterns, _ = fwd_port
    faults = enumerate_faults(netlist)
    first = DropSet()
    reference = fault_simulate(netlist, patterns, faults, dropped=first)
    # Second pass over the same list with the populated set: every
    # previously detected fault is credited, undetected ones re-graded.
    for engine in ("compiled", "interpreted"):
        again = fault_simulate(
            netlist, patterns, faults, engine=engine,
            dropped=DropSet(first.detected),
        )
        assert as_tuple(again) == as_tuple(reference)
    # Pre-dropping *every* fault short-circuits the whole run.
    everything = DropSet(f.stable_id for f in faults)
    credited = fault_simulate(netlist, patterns, faults, dropped=everything)
    assert credited.detected_faults == len(faults)


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_sharded_dropping_matches_serial(fwd_port, num_shards):
    """Grading disjoint subsets of the fault list one after another
    through one shared DropSet sums to the serial run and records the
    same detected ids."""
    netlist, patterns, _ = fwd_port
    faults = enumerate_faults(netlist)
    serial_set = DropSet()
    serial = fault_simulate(netlist, patterns, faults, dropped=serial_set)
    shards = [faults[index::num_shards] for index in range(num_shards)]
    sharded_set = DropSet()
    parts = [
        fault_simulate(netlist, patterns, shard, dropped=sharded_set)
        for shard in shards
    ]
    assert sum(part.total_faults for part in parts) == serial.total_faults
    assert sum(part.detected_faults for part in parts) == serial.detected_faults
    assert {(part.module, part.num_patterns) for part in parts} == {
        (serial.module, serial.num_patterns)
    }
    assert len(sharded_set) == serial.detected_faults
    assert sharded_set.detected == serial_set.detected


# ----------------------------------------------------------------------
# Campaign layer: the engine never moves coverage or signatures.
# ----------------------------------------------------------------------


def outcome_dicts(outcomes):
    return {label: outcome.to_dict() for label, outcome in outcomes.items()}


def test_campaign_engines_agree(tmp_path, monkeypatch):
    """Grade the same campaign with the compiled kernel, then with the
    interpreted reference path patched in at the campaign's kernel
    seam (the module globals its graders call): the outcome dicts,
    signatures included, must be equal."""
    modules = ("FWD", "FWD-TDF")
    compiled = run_parallel_checkpointed_campaign(
        small_provider(),
        SCENARIOS,
        DEFAULT_CAMPAIGN_MODELS,
        tmp_path / "compiled",
        modules=modules,
    ).outcomes
    monkeypatch.setattr(
        campaign,
        "fault_simulate",
        functools.partial(fault_simulate, engine="interpreted"),
    )
    monkeypatch.setattr(
        campaign,
        "transition_fault_simulate",
        functools.partial(transition_fault_simulate, engine="interpreted"),
    )
    interpreted = run_parallel_checkpointed_campaign(
        small_provider(),
        SCENARIOS,
        DEFAULT_CAMPAIGN_MODELS,
        tmp_path / "interpreted",
        modules=modules,
    ).outcomes
    assert outcome_dicts(interpreted) == outcome_dicts(compiled)
    for outcome in compiled.values():
        assert outcome.signatures  # actually recorded, not vacuous
        assert all(c["detected_faults"] for c in outcome.coverages)


# ----------------------------------------------------------------------
# Compile-artifact lifecycle: freeze, cache, and lean pickles.
# ----------------------------------------------------------------------


def test_compiling_freezes_the_netlist():
    netlist = random_netlist(99)
    compiled_for(netlist)
    assert netlist.frozen
    with pytest.raises(FaultModelError, match="frozen"):
        netlist.add_gate(GateKind.NOT, 0)
    with pytest.raises(FaultModelError, match="frozen"):
        netlist.new_net()
    with pytest.raises(FaultModelError, match="frozen"):
        netlist.mark_output_bus("late", [0])


def test_compiled_artifact_is_cached_per_netlist():
    netlist = random_netlist(100)
    assert compiled_for(netlist) is compiled_for(netlist)


def test_pickled_netlists_drop_the_compiled_artifact():
    netlist = random_netlist(101)
    patterns = random_patterns(netlist, 101)
    reference = fault_simulate(netlist, patterns)  # compiles + caches
    clone = pickle.loads(pickle.dumps(netlist))
    assert not hasattr(clone, "_compiled_artifact")
    assert clone.frozen  # freeze state survives the round-trip
    assert as_tuple(fault_simulate(clone, patterns)) == as_tuple(reference)
