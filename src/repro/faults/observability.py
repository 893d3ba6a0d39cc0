"""Build fault-simulation pattern sets from pipeline activation logs.

This is the bridge between the logic simulation (the cycle-level
pipeline run) and the gate-level fault simulation: every recorded module
activation becomes one stimulus pattern, and its observability mask says
on which output bits a fault effect would actually reach the 32-bit
test signature.  Patterns outside the test window (the cache-based
strategy's loading loop) carry no observability and are skipped
entirely — the loading loop can excite faults but never detect them,
exactly as the methodology prescribes.

Each builder packs a record into one integer key whose bit k is the
value of the netlist's k-th primary input, every field masked to the
width of the bus it drives, and deduplicates on that key: the first
occurrence fixes a pattern's index, and the observability bits of later
duplicates OR into it.  Masking makes the key a bijection of the
stimulus the netlist actually sees, so the indices are those a per-bit
dedup would give.  The list of distinct keys is then bit-transposed
once into one packed bigint per input net (bit *t* = pattern *t*), and
the per-key observability bits likewise into one mask per output net.
``ordered=True`` (forwarding only) keeps every observable record in
temporal order instead, as transition-delay grading requires.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.cpu.recording import ActivationLog
from repro.faults.generators import ICU_FIELD_BITS, NUM_SOURCES, PORTS, CoreModules
from repro.faults.netlist import Netlist
from repro.faults.ppsfp import PatternSet
from repro.isa.instructions import NUM_EVENTS

_ICU_FIELD = (1 << ICU_FIELD_BITS) - 1


def _transpose(words: Sequence[int], width: int) -> list[int]:
    """Entry j packs bit j of every word, with ``words[t]`` at bit t.

    Each word must be below ``1 << width``."""
    if not words:
        return [0] * width
    text = "".join([format(word, f"0{width}b") for word in reversed(words)])
    return [int(text[width - 1 - j :: width], 2) for j in range(width)]


def _pattern_set(
    netlist: Netlist,
    keys: Sequence[int],
    key_width: int,
    output_nets: list[int],
    masks: list[int],
) -> PatternSet:
    """Pattern t drives the first ``key_width`` primary inputs with
    ``keys[t]`` (the others stay 0); outputs with an empty mask are
    left out."""
    inputs = dict.fromkeys(netlist.input_nets, 0)
    inputs.update(zip(netlist.input_nets, _transpose(keys, key_width)))
    observability = {net: mask for net, mask in zip(output_nets, masks) if mask}
    return PatternSet(len(keys), inputs, observability)


# ----------------------------------------------------------------------
# Forwarding logic.
# ----------------------------------------------------------------------

def forwarding_pattern_sets(
    log: ActivationLog, modules: CoreModules, ordered: bool = False
) -> dict[tuple[int, int], PatternSet]:
    """One pattern set per consumer port from the forwarding records.

    The key is the one-hot select, then the five candidates masked to
    the module width; a 64-bit record's ``observable_high`` ORs into a
    per-key flag that opens the high output word.  ``ordered=True``
    preserves temporal order without deduplication (needed for
    transition-delay grading)."""
    width = 64 if modules.model.is64 else 32
    mask = (1 << width) - 1
    # Key offsets of the data buses d1..d4; d0 starts after the selects.
    d1, d2, d3, d4 = (NUM_SOURCES + i * width for i in range(1, NUM_SOURCES))
    rows = {port: [] if ordered else {} for port in PORTS}
    for record in log.forwarding:
        if not record.observable:
            continue
        port_rows = rows.get((record.slot, record.operand))
        if port_rows is None:
            continue
        c0, c1, c2, c3, c4 = record.candidates
        key = (
            1 << record.select
            | (c0 & mask) << NUM_SOURCES
            | (c1 & mask) << d1
            | (c2 & mask) << d2
            | (c3 & mask) << d3
            | (c4 & mask) << d4
        )
        high = record.width == 64 and record.observable_high
        if ordered:
            port_rows.append((key, high))
        elif high or key not in port_rows:
            port_rows[key] = high
    pattern_sets = {}
    for port, port_rows in rows.items():
        if not port_rows:
            continue
        keys, highs = zip(*(port_rows if ordered else port_rows.items()))
        every = (1 << len(keys)) - 1
        masks = [every] * 32 + _transpose(highs, 1) * (width - 32)
        netlist = modules.forwarding[port]
        pattern_sets[port] = _pattern_set(
            netlist, keys, NUM_SOURCES * (1 + width), netlist.outputs["out"], masks
        )
    return pattern_sets


# ----------------------------------------------------------------------
# HDCU.
# ----------------------------------------------------------------------

def hdcu_pattern_sets(
    log: ActivationLog, modules: CoreModules
) -> dict[tuple[int, int], PatternSet]:
    """One pattern set per consumer port from the HDCU records.

    The key is one 33-bit word in input-net order: consumer and four
    producer registers (5 bits each), valid mask, load mask (4 bits
    each).  Its observability is 6 bits, ``sel0..4`` then ``stall``."""
    rows = {port: {} for port in PORTS}
    for record in log.hdcu:
        if not record.observable:
            continue
        port_rows = rows.get((record.slot, record.operand))
        if port_rows is None:
            continue
        p0, p1, p2, p3 = record.producer_regs
        key = (
            record.consumer_reg & 31
            | (p0 & 31) << 5
            | (p1 & 31) << 10
            | (p2 & 31) << 15
            | (p3 & 31) << 20
            | (record.producer_valid & 15) << 25
            | (record.producer_load_mask & 15) << 29
        )
        # A wrong stall decision is visible only when the performance
        # counters contribute to the signature (the full algorithm of [19]).
        obs = 32 if record.stall_observable else 0
        flips = record.flip_visible_mask
        if flips and not record.stall:
            # A wrong select is visible through the datapath only when the
            # alternative source carried different data on this pattern.
            obs |= flips & 31 | 1 << record.select
        port_rows[key] = port_rows.get(key, 0) | obs
    pattern_sets = {}
    for port, port_rows in rows.items():
        if not port_rows:
            continue
        netlist = modules.hdcu[port]
        pattern_sets[port] = _pattern_set(
            netlist,
            list(port_rows),
            33,
            netlist.outputs["sel"] + netlist.outputs["stall"],
            _transpose(list(port_rows.values()), NUM_SOURCES + 1),
        )
    return pattern_sets


# ----------------------------------------------------------------------
# ICU.
# ----------------------------------------------------------------------

def icu_pattern_set(log: ActivationLog, modules: CoreModules) -> PatternSet:
    """Patterns from the ICU recognitions (merged ones split per event,
    mirroring the sequential recognition of each pending source).

    The key is one word in input-net order: the one-hot event, the
    imprecision and the recognition count ``count_before + index``, both
    masked to ``ICU_FIELD_BITS``.  Every output is observable."""
    keys: dict[int, None] = {}
    for record in log.icu:
        if not record.observable:
            continue
        imprecision = (record.imprecision & _ICU_FIELD) << NUM_EVENTS
        count = record.count_before
        for event in range(NUM_EVENTS):
            if record.event_vector >> event & 1:
                field = (count & _ICU_FIELD) << NUM_EVENTS + ICU_FIELD_BITS
                keys[1 << event | imprecision | field] = None
                count += 1
    icu = modules.icu
    outputs = [
        net for bus in ("status", "imp_out", "count_out") for net in icu.outputs[bus]
    ]
    return _pattern_set(
        icu,
        list(keys),
        NUM_EVENTS + 2 * ICU_FIELD_BITS,
        outputs,
        [(1 << len(keys)) - 1] * len(outputs),
    )
