"""Structural netlists for module-level stuck-at fault simulation.

A :class:`Netlist` is built feed-forward (every gate's inputs must
already exist when the gate is added), so gate order is a topological
order by construction — no separate levelisation pass is needed for
either good simulation or cone propagation.

Once simulation starts a netlist should be :meth:`~Netlist.freeze`-d:
the compiled engine (:mod:`repro.faults.compiled`) lowers the gate list
into flat arrays whose validity depends on the structure never changing,
so freezing turns any late mutation into a loud
:class:`~repro.errors.FaultModelError` instead of a silently stale
compile artifact.  The fanout table is maintained incrementally by
``add_gate`` (it used to be invalidated on every call, forcing a full
O(gates) rebuild after any post-simulation construction).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import FaultModelError
from repro.faults.gates import UNARY, GateKind, eval_gate


@dataclass(frozen=True)
class Gate:
    """One gate instance: output net and input nets."""

    kind: GateKind
    out: int
    a: int
    b: int = -1


@dataclass
class Netlist:
    """A combinational gate network with named input/output buses."""

    name: str
    num_nets: int = 0
    gates: list[Gate] = field(default_factory=list)
    input_nets: list[int] = field(default_factory=list)
    output_nets: list[int] = field(default_factory=list)
    #: Named buses: field name -> net ids, LSB first.
    inputs: dict[str, list[int]] = field(default_factory=dict)
    outputs: dict[str, list[int]] = field(default_factory=dict)
    #: Named internal nets of interest (e.g. the ICU's event-id encode
    #: lines), for structural tests and diagnostics.
    annotations: dict[str, list[int]] = field(default_factory=dict)
    _fanout: dict[int, list[int]] | None = field(default=None, repr=False)
    _frozen: bool = field(default=False, repr=False)

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------

    @property
    def frozen(self) -> bool:
        return self._frozen

    def freeze(self) -> "Netlist":
        """Seal the structure; all later mutation raises.

        Compiling a netlist freezes it, so a compiled artifact can never
        silently go stale — ``add_gate`` after simulation is a bug, and
        it now fails at the mutation site instead of corrupting results.
        Freezing is idempotent and returns the netlist for chaining.
        """
        self._frozen = True
        return self

    def _check_mutable(self) -> None:
        if self._frozen:
            raise FaultModelError(
                f"netlist {self.name!r} is frozen (already compiled or "
                "simulated); late structural mutation is not allowed"
            )

    def new_net(self) -> int:
        self._check_mutable()
        net = self.num_nets
        self.num_nets += 1
        return net

    def add_input_bus(self, name: str, width: int) -> list[int]:
        """Declare a primary-input bus of ``width`` nets (LSB first)."""
        if name in self.inputs:
            raise FaultModelError(f"duplicate input bus {name!r}")
        nets = [self.new_net() for _ in range(width)]
        self.inputs[name] = nets
        self.input_nets.extend(nets)
        return nets

    def add_gate(self, kind: GateKind, a: int, b: int = -1) -> int:
        """Add a gate; returns its (new) output net."""
        self._check_mutable()
        if a >= self.num_nets or (kind not in UNARY and b >= self.num_nets):
            raise FaultModelError("gate input net does not exist yet")
        if kind in UNARY:
            b = -1
        out = self.new_net()
        index = len(self.gates)
        self.gates.append(Gate(kind, out, a, b))
        # Keep the fanout table in lock-step instead of invalidating it:
        # interleaved build/simulate no longer pays an O(gates) rebuild
        # per mutation.  The incremental update appends exactly what the
        # lazy rebuild would (reader indices in gate order, ``a`` first).
        table = self._fanout
        if table is not None:
            table.setdefault(a, []).append(index)
            if b >= 0:
                table.setdefault(b, []).append(index)
        return out

    def buffer_chain(self, net: int, depth: int) -> int:
        """Append ``depth`` buffers (physical-design fault sites)."""
        for _ in range(depth):
            net = self.add_gate(GateKind.BUF, net)
        return net

    def mark_output_bus(self, name: str, nets: list[int]) -> None:
        self._check_mutable()
        if name in self.outputs:
            raise FaultModelError(f"duplicate output bus {name!r}")
        self.outputs[name] = list(nets)
        self.output_nets.extend(nets)

    # ------------------------------------------------------------------
    # Convenience composite builders.
    # ------------------------------------------------------------------

    def or_tree(self, nets: list[int]) -> int:
        """Balanced OR reduction of one or more nets."""
        if not nets:
            raise FaultModelError("or_tree of nothing")
        level = list(nets)
        while len(level) > 1:
            nxt = []
            for i in range(0, len(level) - 1, 2):
                nxt.append(self.add_gate(GateKind.OR, level[i], level[i + 1]))
            if len(level) % 2:
                nxt.append(level[-1])
            level = nxt
        return level[0]

    def and_tree(self, nets: list[int]) -> int:
        """Balanced AND reduction of one or more nets."""
        if not nets:
            raise FaultModelError("and_tree of nothing")
        level = list(nets)
        while len(level) > 1:
            nxt = []
            for i in range(0, len(level) - 1, 2):
                nxt.append(self.add_gate(GateKind.AND, level[i], level[i + 1]))
            if len(level) % 2:
                nxt.append(level[-1])
            level = nxt
        return level[0]

    def equality(self, bus_a: list[int], bus_b: list[int]) -> int:
        """Bitwise equality comparator (AND of XNORs)."""
        if len(bus_a) != len(bus_b):
            raise FaultModelError("equality of unequal widths")
        bits = [
            self.add_gate(GateKind.XNOR, a, b) for a, b in zip(bus_a, bus_b)
        ]
        return self.and_tree(bits)

    # ------------------------------------------------------------------
    # Simulation.
    # ------------------------------------------------------------------

    @property
    def fanout(self) -> dict[int, list[int]]:
        """Net -> indices of gates reading it (built lazily)."""
        if self._fanout is None:
            table: dict[int, list[int]] = {}
            for index, gate in enumerate(self.gates):
                table.setdefault(gate.a, []).append(index)
                if gate.b >= 0:
                    table.setdefault(gate.b, []).append(index)
            self._fanout = table
        return self._fanout

    def evaluate(self, input_values: dict[int, int], mask: int) -> list[int]:
        """Good simulation: packed values for every net.

        ``input_values`` maps primary-input nets to packed patterns;
        unlisted inputs default to all-zero.
        """
        values = [0] * self.num_nets
        for net, value in input_values.items():
            values[net] = value & mask
        for gate in self.gates:
            b = values[gate.b] if gate.b >= 0 else 0
            values[gate.out] = eval_gate(gate.kind, values[gate.a], b, mask)
        return values

    def stats(self) -> str:
        return (
            f"{self.name}: {self.num_nets} nets, {len(self.gates)} gates, "
            f"{len(self.input_nets)} inputs, {len(self.output_nets)} outputs"
        )

    def __getstate__(self):
        """Drop the cached compile artifact from pickles.

        A netlist shipped to another process is recompiled (and
        instance-cached) there on first use, which is cheaper than
        serialising the flat arrays, cones and buffers."""
        state = dict(self.__dict__)
        state.pop("_compiled_artifact", None)
        return state
