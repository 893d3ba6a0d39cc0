"""Compiled fault-simulation kernel: one-time netlist lowering.

The interpreted engine walks ``list[Gate]`` calling ``eval_gate`` per
gate and re-heapifies a fanout frontier per fault — pure dispatch
overhead on a hot path that every Table II/III run, the resilience
campaigns and the parallel engine sit on.  This module lowers a
:class:`~repro.faults.netlist.Netlist` **once** into flat parallel
arrays and evaluates against those:

* **Flat gate arrays.**  ``kinds``/``gate_a``/``gate_b``/``gate_out``
  are plain-int lists (no :class:`Gate` attribute lookups, no
  ``GateKind`` enum dispatch) plus precomputed static ``levels`` and a
  CSR fanout table (``fanout_index``/``fanout_gates``).
* **Levelized per-kind good simulation.**  Gates are grouped into
  (level, kind) batches at compile time; :meth:`CompiledNetlist.evaluate`
  sweeps each batch with a specialised tight loop instead of calling
  ``eval_gate`` per gate.  Values are bit-for-bit those of
  ``Netlist.evaluate``.
* **Critical path tracing.**  :meth:`CompiledNetlist.propagator`
  computes, once per pattern set, the patterns on which flipping each
  net reaches an observed output.  Only *stems* (nets with a fanout
  other than 1, or observed themselves) are walked forward, each once
  with every pattern flipped, through a cone slice that is computed
  once and cached (:meth:`CompiledNetlist.cone`); every fanout-free net
  inherits its one reader's patterns, narrowed by the reader's side
  input.  The module netlists are almost entirely fanout-free (about
  4 % of the forwarding nets are stems), so grading costs one walk per
  stem instead of one per fault, and a fault's verdict is one AND.
  Cones are additionally *truncated* to gates that can structurally
  reach an observable output whenever the pattern set's observability
  lives on output nets (always true for the pattern sets built by
  :mod:`repro.faults.observability`) — structurally dead stems, such as
  the deliberately-unobservable slices of the generated modules (WAW
  scheduler, vectored-IRQ path), are then never walked at all.

Compiling **freezes** the netlist: late structural mutation raises
instead of leaving a silently stale artifact.  The artifact itself is
cached on the netlist instance (:func:`compiled_for`), and since the
per-model module netlists are process-cached in
:mod:`repro.faults.generators`, every worker process compiles each
netlist exactly once.

The engine choice (``engine="compiled"``, the default, on
:func:`repro.faults.ppsfp.fault_simulate` and
:func:`repro.faults.transition.transition_fault_simulate`) selects the
per-fault propagator and nothing else: :meth:`CompiledNetlist.propagator`
here, or the interpreted reference walk; each fault model's one
per-fault loop runs over whichever it gets.  The campaign's
``module_coverage`` and random-pattern ATPG (:mod:`repro.faults.atpg`)
both grade on this kernel, so ATPG freezes the netlists it analyses.
Results are bit-identical to ``engine="interpreted"`` — same detected
fault sets, same coverage, same signatures — which the differential
suite ``tests/test_compiled_equivalence.py`` pins across fault models
and through a whole checkpointed campaign.
"""

from __future__ import annotations

from repro.errors import FaultModelError
from repro.faults.netlist import Netlist

__all__ = ["CompiledNetlist", "compiled_for"]

#: Plain-int mirror of :class:`repro.faults.gates.GateKind` (the kernels
#: compare against ints, never enum members).
_BUF, _NOT, _AND, _OR, _NAND, _NOR, _XOR, _XNOR = range(8)


class CompiledNetlist:
    """A netlist lowered to flat arrays plus reusable kernel buffers.

    Build through the caching :func:`compiled_for`; the constructor does
    the full lowering pass and freezes the source netlist.
    """

    __slots__ = (
        "netlist",
        "num_nets",
        "num_gates",
        "kinds",
        "gate_a",
        "gate_b",
        "gate_out",
        "levels",
        "fanout_index",
        "fanout_gates",
        "schedule",
        "observable",
        "reader_kind",
        "reader_side",
        "reader_out",
        "_cones",
        "_full_cones",
    )

    def __init__(self, netlist: Netlist):
        netlist.freeze()
        self.netlist = netlist
        self.num_nets = netlist.num_nets
        self.num_gates = len(netlist.gates)
        self.kinds = [int(g.kind) for g in netlist.gates]
        self.gate_a = [g.a for g in netlist.gates]
        self.gate_b = [g.b for g in netlist.gates]
        self.gate_out = [g.out for g in netlist.gates]
        self.levels = self._compute_levels()
        self.fanout_index, self.fanout_gates = self._compute_fanout_csr()
        self.schedule = self._compute_schedule()
        self.observable = self._compute_observable()
        self.reader_kind, self.reader_side, self.reader_out = (
            self._compute_readers()
        )
        # Cone caches: stem -> tuple of (kind, a, b, out) quads in
        # topological order.  Filled lazily, kept for the artifact's
        # lifetime — every pattern set reuses the slice.
        self._cones: dict[int, tuple] = {}
        self._full_cones: dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # Compile passes.
    # ------------------------------------------------------------------

    def _compute_levels(self) -> list[int]:
        """Static level per gate (inputs are level 0)."""
        net_level = [0] * self.num_nets
        levels = []
        for a, b, out in zip(self.gate_a, self.gate_b, self.gate_out):
            level = net_level[a]
            if b >= 0 and net_level[b] > level:
                level = net_level[b]
            level += 1
            net_level[out] = level
            levels.append(level)
        return levels

    def _compute_fanout_csr(self) -> tuple[list[int], list[int]]:
        """Net -> reading gates as a CSR pair (index array + flat list)."""
        counts = [0] * (self.num_nets + 1)
        for a, b in zip(self.gate_a, self.gate_b):
            counts[a + 1] += 1
            if b >= 0:
                counts[b + 1] += 1
        for net in range(self.num_nets):
            counts[net + 1] += counts[net]
        index = list(counts)
        flat = [0] * index[self.num_nets]
        cursor = list(index)
        for gi, (a, b) in enumerate(zip(self.gate_a, self.gate_b)):
            flat[cursor[a]] = gi
            cursor[a] += 1
            if b >= 0:
                flat[cursor[b]] = gi
                cursor[b] += 1
        return index, flat

    def _compute_schedule(self) -> list[tuple]:
        """(level, kind)-batched gate groups for the good-sim sweeps.

        Gates inside one level are independent by construction, so
        grouping them by kind lets :meth:`evaluate` run one specialised
        loop per batch instead of dispatching per gate.
        """
        buckets: dict[tuple[int, int], list[int]] = {}
        for gi, (level, kind) in enumerate(zip(self.levels, self.kinds)):
            buckets.setdefault((level, kind), []).append(gi)
        schedule = []
        for (_, kind), indices in sorted(buckets.items()):
            schedule.append(
                (
                    kind,
                    tuple(self.gate_a[gi] for gi in indices),
                    tuple(self.gate_b[gi] for gi in indices),
                    tuple(self.gate_out[gi] for gi in indices),
                )
            )
        return schedule

    def _compute_observable(self) -> list[bool]:
        """Per net: can a change here structurally reach an output net?

        One reverse topological pass (a gate's output net id is always
        greater than its inputs', so iterating gates backwards settles
        every net in a single sweep).
        """
        observable = [False] * self.num_nets
        for net in self.netlist.output_nets:
            observable[net] = True
        for gi in range(self.num_gates - 1, -1, -1):
            if observable[self.gate_out[gi]]:
                observable[self.gate_a[gi]] = True
                b = self.gate_b[gi]
                if b >= 0:
                    observable[b] = True
        return observable

    def _compute_readers(self) -> tuple[list[int], list[int], list[int]]:
        """Per net: the kind, other input and output net of its only
        reader.

        The other input is -1 for BUF/NOT.  A net read by no gate, by
        several, or twice by one gate (fanout 2) is a structural stem
        and gets -1 in all three lists.  Plain int lists, not tuples:
        they allocate nothing the garbage collector tracks.
        """
        index = self.fanout_index
        kinds = [-1] * self.num_nets
        sides = [-1] * self.num_nets
        outs = [-1] * self.num_nets
        gates = zip(self.kinds, self.gate_a, self.gate_b, self.gate_out)
        for kind, a, b, out in gates:
            if index[a + 1] - index[a] == 1:
                kinds[a], sides[a], outs[a] = kind, b, out
            if b >= 0 and index[b + 1] - index[b] == 1:
                kinds[b], sides[b], outs[b] = kind, a, out
        return kinds, sides, outs

    # ------------------------------------------------------------------
    # Cone cache.
    # ------------------------------------------------------------------

    def cone(self, site: int, truncated: bool = True) -> tuple:
        """The site's fanout-cone slice, computed once and cached.

        Returns (kind, a, b, out) quads for every gate reachable from
        ``site``, in ascending gate order (= topological order).  With
        ``truncated=True`` gates whose output cannot structurally reach
        an output net are excluded — valid whenever observability is
        confined to output nets, which :meth:`can_truncate` checks.
        """
        cache = self._cones if truncated else self._full_cones
        cached = cache.get(site)
        if cached is not None:
            return cached
        index, flat = self.fanout_index, self.fanout_gates
        out_nets = self.gate_out
        observable = self.observable
        reached: set[int] = set()
        pending = [site]
        seen_nets = {site}
        while pending:
            net = pending.pop()
            for slot in range(index[net], index[net + 1]):
                gi = flat[slot]
                if gi in reached:
                    continue
                out = out_nets[gi]
                if truncated and not observable[out]:
                    continue
                reached.add(gi)
                if out not in seen_nets:
                    seen_nets.add(out)
                    pending.append(out)
        kinds, gate_a, gate_b = self.kinds, self.gate_a, self.gate_b
        cone = tuple(
            (kinds[gi], gate_a[gi], gate_b[gi], out_nets[gi])
            for gi in sorted(reached)
        )
        cache[site] = cone
        return cone

    # ------------------------------------------------------------------
    # Kernels.
    # ------------------------------------------------------------------

    def evaluate(self, input_values: dict[int, int], mask: int) -> list[int]:
        """Good simulation over the levelized per-kind schedule.

        Bit-identical to ``Netlist.evaluate`` — same packed value for
        every net — at a fraction of the dispatch cost.
        """
        values = [0] * self.num_nets
        for net, value in input_values.items():
            values[net] = value & mask
        for kind, aa, bb, oo in self.schedule:
            if kind == _AND:
                for ai, bi, oi in zip(aa, bb, oo):
                    values[oi] = values[ai] & values[bi]
            elif kind == _OR:
                for ai, bi, oi in zip(aa, bb, oo):
                    values[oi] = values[ai] | values[bi]
            elif kind == _BUF:
                for ai, oi in zip(aa, oo):
                    values[oi] = values[ai]
            elif kind == _XNOR:
                for ai, bi, oi in zip(aa, bb, oo):
                    values[oi] = ~(values[ai] ^ values[bi]) & mask
            elif kind == _XOR:
                for ai, bi, oi in zip(aa, bb, oo):
                    values[oi] = values[ai] ^ values[bi]
            elif kind == _NOT:
                for ai, oi in zip(aa, oo):
                    values[oi] = ~values[ai] & mask
            elif kind == _NAND:
                for ai, bi, oi in zip(aa, bb, oo):
                    values[oi] = ~(values[ai] & values[bi]) & mask
            elif kind == _NOR:
                for ai, bi, oi in zip(aa, bb, oo):
                    values[oi] = ~(values[ai] | values[bi]) & mask
            else:  # pragma: no cover - compile lowers known kinds only
                raise FaultModelError(f"unknown compiled gate kind {kind}")
        return values

    def observability_vector(self, observability: dict[int, int]) -> list:
        """Dense per-net observability masks (``None`` = unobserved)."""
        vector: list = [None] * self.num_nets
        for net, obs_mask in observability.items():
            vector[net] = obs_mask
        return vector

    def can_truncate(self, observability: dict[int, int]) -> bool:
        """True when every observability mask sits on a net the
        truncated cones keep (a net that structurally reaches an output
        net).  False falls back to full cones — never wrong, just
        slower."""
        observable = self.observable
        return all(observable[net] for net in observability)

    def propagator(
        self, good: list[int], mask: int, obs: list, truncated: bool = True
    ):
        """A ``(site, faulty_site_value) -> bool`` propagation closure.

        Critical path tracing (Abramovici, Menon and Miller, DAC 1983):
        before returning, one pass computes ``lanes[n]``, the patterns
        on which flipping net ``n`` reaches an observed output on an
        observed pattern.  A *stem* (fanout other than 1, or itself
        observed) gets its lanes from one forward walk of its cone with
        every pattern flipped; any other net takes its one reader's
        lanes, narrowed to the patterns where the reader's side input
        lets the flip through.  Nets are visited in descending id order,
        so a reader's output (always a higher id) is settled first.
        Pattern lanes are independent and a fanout-free path cannot
        reconverge, so the answer is exact: a fault is detected iff its
        site differs from the good value on one of the site's lanes.
        """
        cones = self._cones if truncated else self._full_cones
        cones_get = cones.get
        build = self.cone
        observable = self.observable
        reader_kind = self.reader_kind
        reader_side = self.reader_side
        reader_out = self.reader_out
        faulty = [0] * self.num_nets
        stamp = [0] * self.num_nets
        lanes = [0] * self.num_nets
        epoch = 0
        for n in range(self.num_nets - 1, -1, -1):
            site_obs = obs[n]
            out = reader_out[n]
            if out >= 0 and site_obs is None:
                kind = reader_kind[n]
                through = lanes[out]
                if kind == _AND or kind == _NAND:
                    through &= good[reader_side[n]]
                elif kind == _OR or kind == _NOR:
                    through &= ~good[reader_side[n]]
                lanes[n] = through
                continue
            # Under truncation every observed net is live, so a stem
            # that cannot reach an output net is never walked.
            if truncated and not observable[n]:
                continue
            acc = 0 if site_obs is None else mask & site_obs
            cone = cones_get(n)
            if cone is None:
                cone = build(n, truncated)
            if cone:
                epoch += 1
                faulty[n] = good[n] ^ mask
                stamp[n] = epoch
                for kind, a, b, out in cone:
                    if b < 0:
                        if stamp[a] != epoch:
                            continue
                        value = faulty[a] if kind == _BUF else ~faulty[a] & mask
                    else:
                        stamped_a = stamp[a] == epoch
                        stamped_b = stamp[b] == epoch
                        if not stamped_a and not stamped_b:
                            continue
                        av = faulty[a] if stamped_a else good[a]
                        bv = faulty[b] if stamped_b else good[b]
                        if kind == _AND:
                            value = av & bv
                        elif kind == _OR:
                            value = av | bv
                        elif kind == _XNOR:
                            value = ~(av ^ bv) & mask
                        elif kind == _XOR:
                            value = av ^ bv
                        elif kind == _NAND:
                            value = ~(av & bv) & mask
                        else:  # NOR
                            value = ~(av | bv) & mask
                    good_value = good[out]
                    if value == good_value:
                        continue
                    faulty[out] = value
                    stamp[out] = epoch
                    out_obs = obs[out]
                    if out_obs is not None:
                        acc |= (value ^ good_value) & out_obs
            lanes[n] = acc

        def propagate(site: int, faulty_site_value: int) -> bool:
            return bool((good[site] ^ faulty_site_value) & lanes[site])

        return propagate


def compiled_for(netlist: Netlist) -> CompiledNetlist:
    """The netlist's cached compiled artifact (compiled on first use).

    The artifact rides on the netlist instance, so anything holding the
    netlist — the process-wide module cache in
    :mod:`repro.faults.generators`, a worker that unpickled one shard's
    netlist — compiles at most once and every subsequent fault-sim call
    reuses the arrays, cones and buffers.
    """
    cached = getattr(netlist, "_compiled_artifact", None)
    if cached is None:
        cached = CompiledNetlist(netlist)
        netlist._compiled_artifact = cached
    return cached
