"""Parallel-pattern single-fault-propagation stuck-at simulator.

The substitute for the commercial fault simulator of Section IV-C: it
fault-grades the module activation patterns logged during a pipeline
run.  One good simulation packs every pattern into bigints; each fault
then re-evaluates only its downstream cone, and a fault is *detected*
when a faulty output bit differs from the good value on a pattern where
that output is observable (reaches the 32-bit test signature).

The engine selects a propagator and nothing else; each fault model
keeps one per-fault loop over whichever propagator it is given, and
the two produce bit-identical results:

* ``engine="compiled"`` (default) — the levelized array kernel of
  :mod:`repro.faults.compiled`: per-kind batched good simulation and
  critical path tracing (one forward walk per fanout stem per pattern
  set, every fault then answered with one AND).
* ``engine="interpreted"`` — the original per-gate reference path
  (:func:`_propagate`), kept selectable (and continuously
  differential-tested) both as the correctness oracle and for netlists
  that are still under construction, since compiling freezes the
  structure.

Both loops support **fault dropping** through a :class:`DropSet`:
a registry of detected ``stable_id``s shared across calls (pattern
blocks, scenarios, ATPG rounds) of one cumulative grading run.  A fault
whose id is already in the set is credited as detected without
simulating — the classic fault-dropping optimisation.  The set records
the same ids under either engine, so it, like the result, is
engine-independent.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import partial

from repro.errors import FaultModelError
from repro.faults.compiled import compiled_for
from repro.faults.netlist import Netlist
from repro.faults.stuckat import StuckAtFault, collapse_with_weights
from repro.utils.bitops import mask as bitmask

#: Selectable fault-simulation engines.
ENGINES = ("compiled", "interpreted")


class DropSet:
    """Detected-fault registry for cross-call fault dropping.

    Pass one instance through consecutive :func:`fault_simulate` /
    :func:`~repro.faults.transition.transition_fault_simulate` calls of
    a cumulative campaign: every newly detected fault's ``stable_id``
    is recorded, and faults already present are *dropped* — credited as
    detected without re-simulating.  Within a single call over a
    duplicate-free fault list the set never changes the result (each id
    is seen once), so per-call results stay bit-identical with or
    without dropping; across calls it implements union semantics
    ("which faults has the campaign detected so far") at a fraction of
    the cost.
    """

    __slots__ = ("_ids",)

    def __init__(self, ids=()):
        self._ids: set[str] = set(ids)

    def __contains__(self, stable_id: str) -> bool:
        return stable_id in self._ids

    def __len__(self) -> int:
        return len(self._ids)

    def add(self, stable_id: str) -> None:
        self._ids.add(stable_id)

    @property
    def detected(self) -> frozenset:
        """The detected ``stable_id``s recorded so far."""
        return frozenset(self._ids)


@dataclass
class PatternSet:
    """Packed stimulus + observability for one fault-simulation run.

    ``inputs`` maps primary-input net -> packed values (bit *t* =
    pattern *t*).  ``output_observability`` maps output net -> packed
    mask of the patterns in which that output is compared against the
    reference signature.
    """

    num_patterns: int
    inputs: dict[int, int] = field(default_factory=dict)
    output_observability: dict[int, int] = field(default_factory=dict)

    @property
    def mask(self) -> int:
        return bitmask(self.num_patterns)


@dataclass
class FaultSimResult:
    """Outcome of fault-simulating one netlist against one pattern set."""

    module: str
    total_faults: int
    detected_faults: int
    num_patterns: int

    @property
    def coverage_percent(self) -> float:
        if self.total_faults == 0:
            return 0.0
        return 100.0 * self.detected_faults / self.total_faults


def good_simulation(netlist: Netlist, patterns: PatternSet) -> list[int]:
    """Fault-free packed values of every net."""
    return netlist.evaluate(patterns.inputs, patterns.mask)


def _propagate(
    netlist: Netlist,
    good: list[int],
    site: int,
    faulty_site_value: int,
    mask: int,
    observability: dict[int, int],
) -> bool:
    """Propagate one fault's effect through its fanout cone.

    Returns True as soon as a difference reaches an observable output on
    an observable pattern.
    """
    from repro.faults.gates import eval_gate

    diff_at_site = (good[site] ^ faulty_site_value) & mask
    if not diff_at_site:
        return False
    faulty: dict[int, int] = {site: faulty_site_value}
    obs = observability.get(site)
    if obs is not None and diff_at_site & obs:
        return True
    heap = list(netlist.fanout.get(site, ()))
    heapq.heapify(heap)
    seen: set[int] = set(heap)
    gates = netlist.gates
    while heap:
        index = heapq.heappop(heap)
        gate = gates[index]
        a = faulty.get(gate.a, good[gate.a])
        b = faulty.get(gate.b, good[gate.b]) if gate.b >= 0 else 0
        out_value = eval_gate(gate.kind, a, b, mask)
        if out_value == good[gate.out]:
            continue
        faulty[gate.out] = out_value
        obs = observability.get(gate.out)
        if obs is not None and (out_value ^ good[gate.out]) & obs:
            return True
        for consumer in netlist.fanout.get(gate.out, ()):
            if consumer not in seen:
                seen.add(consumer)
                heapq.heappush(heap, consumer)
    return False


def _propagator(netlist: Netlist, patterns: PatternSet, engine: str):
    """``(good, propagate)`` for grading one pattern set under ``engine``.

    The engine's only choice: ``propagate(site, faulty_site_value)``
    returns True when the faulty value reaches an observed output on an
    observed pattern.  ``good`` is the fault-free packed value of every
    net, which the transition kernel reads to find its launches.
    """
    if engine not in ENGINES:
        raise FaultModelError(
            f"unknown engine {engine!r} (choices: {', '.join(ENGINES)})"
        )
    observability = patterns.output_observability
    for net in observability:
        if not 0 <= net < netlist.num_nets:
            raise FaultModelError(f"observability on unknown net {net}")
    mask = patterns.mask
    if engine == "compiled":
        compiled = compiled_for(netlist)
        good = compiled.evaluate(patterns.inputs, mask)
        propagate = compiled.propagator(
            good,
            mask,
            compiled.observability_vector(observability),
            compiled.can_truncate(observability),
        )
        return good, propagate
    good = good_simulation(netlist, patterns)
    return good, partial(
        _propagate, netlist, good, mask=mask, observability=observability
    )


def fault_simulate(
    netlist: Netlist,
    patterns: PatternSet,
    faults: list[StuckAtFault] | list[tuple[StuckAtFault, int]] | None = None,
    *,
    engine: str = "compiled",
    dropped: DropSet | None = None,
) -> FaultSimResult:
    """Simulate every fault against the pattern set.

    ``faults`` may be a plain fault list or a weighted
    (fault, class-size) list from :func:`collapse_with_weights`; in the
    weighted form the totals count the full uncollapsed population
    while only one representative per equivalence class is simulated.

    ``engine`` selects the compiled array kernel (default) or the
    interpreted per-gate reference path — bit-identical results either
    way.  ``dropped``, when given, enables fault dropping: faults whose
    ``stable_id`` is already recorded are credited as detected without
    simulation, and new detections are added to the set.
    """
    _, propagate = _propagator(netlist, patterns, engine)
    if faults is None:
        faults = collapse_with_weights(netlist)
    weighted: list[tuple[StuckAtFault, int]] = [
        item if isinstance(item, tuple) else (item, 1) for item in faults
    ]
    mask = patterns.mask
    detected = 0
    total = 0
    for fault, weight in weighted:
        total += weight
        if dropped is not None and fault.stable_id in dropped:
            detected += weight
            continue
        if propagate(fault.net, 0 if fault.value == 0 else mask):
            detected += weight
            if dropped is not None:
                dropped.add(fault.stable_id)
    return FaultSimResult(
        module=netlist.name,
        total_faults=total,
        detected_faults=detected,
        num_patterns=patterns.num_patterns,
    )
