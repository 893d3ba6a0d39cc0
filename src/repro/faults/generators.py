"""Per-core-model netlist generators for the fault-targeted modules.

The paper fault-grades three modules of each core: the *forwarding
logic* (the 5:1 operand multiplexers of each issue slot), the *Hazard
Detection Control Unit* (the comparators and priority logic that drive
the mux selects and the stall request) and the *Interrupt Control Unit*.
This module builds structural gate-level equivalents whose good-value
behaviour matches the behavioural pipeline model bit for bit (asserted
by the consistency tests), with three per-model touches from
Section IV:

* cores A and B share the RTL but went through **different physical
  design** flows — modelled as seeded buffer-chain insertion, giving
  them different fault lists and counts;
* core C has a **64-bit datapath** (double-width muxes, roughly twice
  the forwarding fault population);
* core C's ICU decodes the recognised event to **one-hot status bits**,
  while A and B OR event pairs into shared bits — faults in the
  event-encode/decode chain that swap a pair's members are structurally
  undetectable through a shared bit, which is why core C's ICU coverage
  runs ~10 % higher.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.core import CoreModel
from repro.faults.gates import GateKind
from repro.faults.netlist import Netlist
from repro.faults.stuckat import StuckAtFault, collapse_with_weights
from repro.isa.instructions import NUM_EVENTS
from repro.utils.rng import DeterministicRng

#: Number of forwarding sources (RF, EX0, EX1, MEM0, MEM1).
NUM_SOURCES = 5
#: Consumer ports: (issue slot, operand index).
PORTS = ((0, 0), (0, 1), (1, 0), (1, 1))
#: Width of the imprecision / recognition-count fields in the ICU model.
ICU_FIELD_BITS = 4
#: Data columns of each forwarding mux that the test never selects.
EXTRA_SOURCES = 2


def _depth(model: CoreModel) -> int:
    """Buffer-chain depth of the forwarding and HDCU netlists; core B's
    physical design inserts one more stage (the ICU adds one to it)."""
    return 3 if model.name == "B" else 2


def _chain(nl: Netlist, net: int, rng: DeterministicRng, lo: int, hi: int) -> int:
    return nl.buffer_chain(net, rng.randint(lo, hi))


# ----------------------------------------------------------------------
# Forwarding logic.
# ----------------------------------------------------------------------

def generate_forwarding_port(model: CoreModel, slot: int, operand: int) -> Netlist:
    """One consumer-operand forwarding mux (width 32, or 64 on core C).

    Besides the five sources the register-to-register test can steer
    (RF, EX0/1, MEM0/1), the physical mux has ``EXTRA_SOURCES`` more
    data columns — late multiplier-bypass and link/CSR write paths —
    that the forwarding algorithm of [19] never selects.  Their faults
    are at best half-detectable (a stuck-at-1 may disturb the OR tree;
    a stuck-at-0 on an already-silent column never propagates), which
    is the structural reason the algorithm tops out around 80 % even
    with every steerable path excited.
    """
    width = 64 if model.is64 else 32
    depth = _depth(model)
    rng = DeterministicRng(model.netlist_seed ^ (slot * 97 + operand * 31 + 7))
    nl = Netlist(f"fwd_{model.name}_s{slot}o{operand}")
    sel = nl.add_input_bus("sel", NUM_SOURCES)
    data = [nl.add_input_bus(f"d{i}", width) for i in range(NUM_SOURCES)]
    # Dead columns last, so pattern stimuli can leave them implicit 0.
    sel_x = nl.add_input_bus("sel_x", EXTRA_SOURCES)
    data_x = [nl.add_input_bus(f"dx{i}", width) for i in range(EXTRA_SOURCES)]
    # Select lines fan out to every bit slice through buffer trees.
    sel_buf = [_chain(nl, s, rng, 1, depth) for s in sel]
    sel_x_buf = [_chain(nl, s, rng, 1, depth) for s in sel_x]
    out = []
    for j in range(width):
        terms = []
        for i in range(NUM_SOURCES):
            dij = _chain(nl, data[i][j], rng, 0, depth)
            terms.append(nl.add_gate(GateKind.AND, sel_buf[i], dij))
        for i in range(EXTRA_SOURCES):
            dij = _chain(nl, data_x[i][j], rng, 0, depth)
            terms.append(nl.add_gate(GateKind.AND, sel_x_buf[i], dij))
        merged = nl.or_tree(terms)
        out.append(_chain(nl, merged, rng, 0, 2))
    nl.mark_output_bus("out", out)
    return nl


# ----------------------------------------------------------------------
# Hazard Detection Control Unit.
# ----------------------------------------------------------------------

def generate_hdcu_port(model: CoreModel, slot: int, operand: int) -> Netlist:
    """The comparator/priority block serving one consumer operand.

    Inputs: the consumer's register index, the four in-flight producers'
    destination indices with valid bits, and per-producer
    "unready load" flags.  Outputs: the one-hot forwarding select
    (RF, EX0, EX1, MEM0, MEM1 — matching :class:`FwdSource` order) and
    the stall request ("forwarding not possible yet").
    """
    depth = _depth(model)
    rng = DeterministicRng(model.netlist_seed ^ (slot * 53 + operand * 17 + 3))
    nl = Netlist(f"hdcu_{model.name}_s{slot}o{operand}")
    consumer = nl.add_input_bus("c", 5)
    producers = [nl.add_input_bus(f"p{i}", 5) for i in range(4)]
    valid = nl.add_input_bus("valid", 4)
    load = nl.add_input_bus("load", 4)
    consumer_buf = [_chain(nl, bit, rng, 1, depth) for bit in consumer]
    matches = []
    for i in range(4):
        p_buf = [_chain(nl, bit, rng, 0, depth) for bit in producers[i]]
        eq = nl.equality(consumer_buf, p_buf)
        matches.append(nl.add_gate(GateKind.AND, eq, valid[i]))
    # Youngest-first priority (EX0, EX1, MEM0, MEM1).
    m0, m1, m2, m3 = matches
    none01 = nl.add_gate(GateKind.NOR, m0, m1)
    or01 = nl.add_gate(GateKind.OR, m0, m1)
    or012 = nl.add_gate(GateKind.OR, or01, m2)
    s_ex0 = _chain(nl, m0, rng, 1, depth)
    s_ex1 = nl.add_gate(GateKind.AND, m1, nl.add_gate(GateKind.NOT, m0))
    s_mem0 = nl.add_gate(GateKind.AND, m2, none01)
    s_mem1 = nl.add_gate(GateKind.AND, m3, nl.add_gate(GateKind.NOT, or012))
    or23 = nl.add_gate(GateKind.OR, m2, m3)
    s_rf = nl.add_gate(GateKind.NOR, or01, or23)
    selects = [
        _chain(nl, s_rf, rng, 0, depth),
        s_ex0,
        _chain(nl, s_ex1, rng, 0, depth),
        _chain(nl, s_mem0, rng, 0, depth),
        _chain(nl, s_mem1, rng, 0, depth),
    ]
    nl.mark_output_bus("sel", selects)
    # Stall: the selected producer is a load whose data is not back yet.
    stall_terms = [
        nl.add_gate(GateKind.AND, selects[1 + i], _chain(nl, load[i], rng, 0, depth))
        for i in range(4)
    ]
    stall = _chain(nl, nl.or_tree(stall_terms), rng, 1, depth)
    nl.mark_output_bus("stall", [stall])
    # Unobserved slice: the WAW/structural scheduler that cross-compares
    # the same-latch producer destinations.  Its result feeds the issue
    # scheduler, not anything the self-test signature can see, so its
    # faults are untestable by this algorithm (part of the HDCU's
    # coverage gap below ~70 %).
    waw_terms = []
    for i, j in ((0, 1), (2, 3)):
        pi = [_chain(nl, bit, rng, 0, depth) for bit in producers[i]]
        pj = [_chain(nl, bit, rng, 0, depth) for bit in producers[j]]
        both = nl.add_gate(GateKind.AND, valid[i], valid[j])
        waw_terms.append(nl.add_gate(GateKind.AND, nl.equality(pi, pj), both))
    nl.buffer_chain(nl.or_tree(waw_terms), 2)
    return nl


# ----------------------------------------------------------------------
# Interrupt Control Unit.
# ----------------------------------------------------------------------

def generate_icu(model: CoreModel) -> Netlist:
    """The recognition-side ICU: event encode/decode, status mapping,
    imprecision latch path and recognition counter."""
    depth = _depth(model) + 1
    rng = DeterministicRng(model.netlist_seed ^ 0x1C0)
    nl = Netlist(f"icu_{model.name}")
    events = nl.add_input_bus("e", NUM_EVENTS)
    imp = nl.add_input_bus("imp", ICU_FIELD_BITS)
    count = nl.add_input_bus("count", ICU_FIELD_BITS)
    pend = [_chain(nl, e, rng, 2, depth + 1) for e in events]
    # Priority one-hot (lowest event index wins), then encode to 3 bits.
    blocked = None
    onehot = []
    for i, p in enumerate(pend):
        if blocked is None:
            onehot.append(_chain(nl, p, rng, 0, depth))
            blocked = p
        else:
            onehot.append(
                nl.add_gate(GateKind.AND, p, nl.add_gate(GateKind.NOT, blocked))
            )
            blocked = nl.add_gate(GateKind.OR, blocked, p)
    enc0 = nl.or_tree([onehot[1], onehot[3], onehot[5]])
    enc1 = nl.or_tree([onehot[2], onehot[3]])
    enc2 = nl.or_tree([onehot[4], onehot[5]])
    enc = [
        _chain(nl, enc0, rng, 1, depth),
        _chain(nl, enc1, rng, 1, depth),
        _chain(nl, enc2, rng, 1, depth),
    ]
    any_event = _chain(nl, blocked, rng, 1, depth)
    nl.annotations["enc"] = list(enc)
    # Decode the recognised event id back to one line per event.
    inv = [nl.add_gate(GateKind.NOT, bit) for bit in enc]
    decoded = []
    for i in range(NUM_EVENTS):
        bits = [
            enc[k] if (i >> k) & 1 else inv[k] for k in range(3)
        ]
        term = nl.and_tree(bits)
        decoded.append(nl.add_gate(GateKind.AND, term, any_event))
    # Status mapping: the per-model software-visible register.
    if model.icu_shared_status_bits:
        status = [
            _chain(
                nl,
                nl.add_gate(GateKind.OR, decoded[2 * j], decoded[2 * j + 1]),
                rng,
                1,
                depth,
            )
            for j in range(NUM_EVENTS // 2)
        ]
    else:
        status = [_chain(nl, d, rng, 1, depth) for d in decoded]
    nl.mark_output_bus("status", status)
    # Imprecision latch path: what ICU_IMPREC returns.
    nl.mark_output_bus(
        "imp_out", [_chain(nl, bit, rng, 2, depth + 1) for bit in imp]
    )
    # Recognition counter: count + 1 (ripple incrementer).
    carry = any_event
    count_out = []
    for bit in count:
        b = _chain(nl, bit, rng, 0, depth)
        count_out.append(nl.add_gate(GateKind.XOR, b, carry))
        carry = nl.add_gate(GateKind.AND, b, carry)
    nl.mark_output_bus("count_out", count_out)
    # Unobserved slice: the vectored-IRQ forwarding path.  The polling
    # self-test of [21] never enables vectored delivery, so everything
    # from the per-source IRQ gating to the vector encode is invisible
    # to the signature — the bulk of the ICU's sub-60 % coverage.
    reserved = nl.add_input_bus("rsv", 2)
    irq_lines = []
    for source in list(events) + list(reserved):
        gated = _chain(nl, source, rng, depth, depth + 3)
        enable = _chain(nl, any_event, rng, 0, depth)
        irq_lines.append(nl.add_gate(GateKind.AND, gated, enable))
    vec_parity = irq_lines[0]
    for line in irq_lines[1:]:
        vec_parity = nl.add_gate(GateKind.XOR, vec_parity, line)
    nl.buffer_chain(vec_parity, depth + 2)
    for k in range(3):
        nl.buffer_chain(nl.or_tree(irq_lines[k::3]), depth + 1)
    return nl


# ----------------------------------------------------------------------
# Per-model module set (built once, cached).
# ----------------------------------------------------------------------

@dataclass
class CoreModules:
    """All fault-target netlists + collapsed fault lists of one core."""

    model: CoreModel
    forwarding: dict[tuple[int, int], Netlist]
    hdcu: dict[tuple[int, int], Netlist]
    icu: Netlist
    #: Weighted equivalence classes: (representative, uncollapsed size).
    forwarding_faults: dict[tuple[int, int], list[tuple[StuckAtFault, int]]]
    hdcu_faults: dict[tuple[int, int], list[tuple[StuckAtFault, int]]]
    icu_faults: list[tuple[StuckAtFault, int]]

    @property
    def forwarding_fault_count(self) -> int:
        return sum(
            w for faults in self.forwarding_faults.values() for _, w in faults
        )

    @property
    def hdcu_fault_count(self) -> int:
        return sum(w for faults in self.hdcu_faults.values() for _, w in faults)

    @property
    def icu_fault_count(self) -> int:
        return sum(w for _, w in self.icu_faults)


_MODULE_CACHE: dict[str, CoreModules] = {}


def get_modules(model: CoreModel) -> CoreModules:
    """Build (or fetch the cached) netlists for one core model."""
    cached = _MODULE_CACHE.get(model.name)
    if cached is not None:
        return cached
    forwarding = {
        port: generate_forwarding_port(model, *port) for port in PORTS
    }
    hdcu = {port: generate_hdcu_port(model, *port) for port in PORTS}
    icu = generate_icu(model)
    modules = CoreModules(
        model=model,
        forwarding=forwarding,
        hdcu=hdcu,
        icu=icu,
        forwarding_faults={
            port: collapse_with_weights(nl) for port, nl in forwarding.items()
        },
        hdcu_faults={port: collapse_with_weights(nl) for port, nl in hdcu.items()},
        icu_faults=collapse_with_weights(icu),
    )
    _MODULE_CACHE[model.name] = modules
    return modules
