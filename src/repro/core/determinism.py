"""Determinism scenarios: run a routine in one cell of the Section IV-C
scenario matrix and collect signatures + module-activation logs.

A *scenario* is (set of active cores, code position, code alignment).
:func:`run_scenario` runs every active core's own program simultaneously
on a fresh SoC and captures, per core: the final signature, the mailbox
verdict, the activation log (for offline fault simulation) and the
stall counters.  Signature stability across scenarios is the paper's
first-order deliverable; fault-coverage stability is computed from the
logs by :mod:`repro.faults.campaign`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.core.golden import DEFAULT_MAX_CYCLES
from repro.cpu.recording import ActivationLog
from repro.isa.program import Program
from repro.soc.config import DEFAULT_SOC_CONFIG, SocConfig
from repro.soc.loader import CodeAlignment, CodePosition, placement_address
from repro.soc.soc import Soc
from repro.stl.conventions import SIG_REG

#: Builder signature: base_address -> Program.
ProgramBuilder = Callable[[int], Program]


@dataclass(frozen=True)
class Scenario:
    """One point of the Section IV-C experiment matrix."""

    active_cores: tuple[int, ...]
    position: CodePosition
    alignment: CodeAlignment

    @property
    def label(self) -> str:
        cores = "".join(str(c) for c in self.active_cores)
        return f"cores{cores}_{self.position.name.lower()}_{self.alignment.name.lower()}"

    def start_delay(self, core_id: int) -> int:
        """Deterministic per-core release delay, in cycles.

        The paper notes the stall figures "vary depending on the initial
        SoC configuration": boot firmware releases the cores a few
        cycles apart and the offset differs run to run.  Each scenario
        fixes a distinct but reproducible stagger derived from its
        placement parameters.
        """
        seed = (self.position.value >> 4) * 3 + self.alignment.value // 4 * 5
        return (seed + core_id * 7) % 11


def default_scenarios() -> tuple[Scenario, ...]:
    """The paper's matrix: {2,3 active cores} x {3 positions} x {3 alignments}."""
    scenarios = []
    for active in ((0, 1), (0, 1, 2)):
        for position in CodePosition:
            for alignment in CodeAlignment:
                scenarios.append(Scenario(active, position, alignment))
    return tuple(scenarios)


def single_core_scenarios(core: int) -> tuple[Scenario, ...]:
    """Single-core reference runs over all placements."""
    return tuple(
        Scenario((core,), position, alignment)
        for position in CodePosition
        for alignment in CodeAlignment
    )


@dataclass
class CoreRunResult:
    """What one core produced in one scenario."""

    core_id: int
    model: str
    signature: int
    mailbox: int
    cycles: int
    if_stalls: int
    mem_stalls: int
    hazard_stalls: int
    log: ActivationLog


@dataclass
class ScenarioResult:
    """All per-core results of one scenario run."""

    scenario: Scenario
    total_cycles: int
    per_core: dict[int, CoreRunResult] = field(default_factory=dict)
    #: Determinism-audit verdict (``run_scenario(..., audit=True)``).
    audit: dict | None = None


def run_scenario(
    builders: dict[int, ProgramBuilder],
    scenario: Scenario,
    soc_config: SocConfig = DEFAULT_SOC_CONFIG,
    pcs_observable: bool = False,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    audit: bool = False,
) -> ScenarioResult:
    """Run one scenario: each active core executes its own program copy.

    ``builders`` maps core id to a relocatable program builder; inactive
    cores stay switched off ("with the other cores completely turned
    off", Section IV-B).  ``audit=True`` attaches a telemetry session in
    metrics-only mode and reports the determinism auditor's verdict in
    ``ScenarioResult.audit``.
    """
    soc = Soc(soc_config)
    session = None
    if audit:
        # Function-level import: repro.telemetry.session must stay
        # importable from the models this module builds on.
        from repro.telemetry.session import TelemetrySession

        session = TelemetrySession.attach(soc, keep_events=False)
    entry_points: dict[int, int] = {}
    for core_id in scenario.active_cores:
        builder = builders[core_id]
        base = placement_address(scenario.position, scenario.alignment, core_id)
        program = builder(base)
        soc.load(program)
        entry_points[core_id] = program.base_address
        soc.cores[core_id].stall_observable = pcs_observable
    for core_id, entry in sorted(
        entry_points.items(), key=lambda item: scenario.start_delay(item[0])
    ):
        soc.run_cycles(
            max(0, scenario.start_delay(core_id) - soc.cycle)
        )
        soc.start_core(core_id, entry)
    total = soc.run(max_cycles=max_cycles)
    result = ScenarioResult(scenario=scenario, total_cycles=total)
    if session is not None:
        result.audit = session.audit_summary()
        session.detach()
    for core_id in scenario.active_cores:
        core = soc.cores[core_id]
        result.per_core[core_id] = CoreRunResult(
            core_id=core_id,
            model=core.model.name,
            signature=core.regfile.read(SIG_REG),
            mailbox=core.dtcm.read_word(core.dtcm.base),
            cycles=core.cycles,
            if_stalls=core.ifstall,
            mem_stalls=core.memstall,
            hazard_stalls=core.hazstall,
            log=core.log,
        )
    return result
