"""One driver per table/figure of the paper's evaluation (Section IV).

Every function reproduces the corresponding experiment end to end on
the simulated SoC and returns a result object whose ``render()`` prints
the same rows the paper reports, next to the paper's own numbers.
Absolute values differ (the substrate is a simulator and the fault
universe is generated, not the authors' silicon netlist); the shapes —
who wins, what is stable, where the gaps lie — are the reproduction
target.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field

from repro.core.cache_wrapper import cache_wrapped_builder
from repro.core.determinism import (
    Scenario,
    default_scenarios,
    run_scenario,
    single_core_scenarios,
)
from repro.core.golden import DEFAULT_MAX_CYCLES, finalise_with_expected, run_alone
from repro.core.report import signature_stability
from repro.core.tcm_wrapper import build_tcm_wrapped
from repro.cpu.core import CoreModel
from repro.cpu.trace import render_pipeline_diagram
from repro.errors import SimulationError
from repro.faults.campaign import (
    CoverageRange,
    coverage_range,
    coverage_ranges,
    module_coverage,
)
from repro.faults.generators import get_modules
from repro.faults.orchestrator import run_parallel_checkpointed_campaign
from repro.faults.workload import DEFAULT_CAMPAIGN_MODELS as MODELS
from repro.faults.workload import forwarding_builders
from repro.isa.instructions import Instruction, Mnemonic
from repro.soc.config import DEFAULT_SOC_CONFIG, SocConfig
from repro.soc.debugger import StallMonitor, StallReport
from repro.soc.loader import CodeAlignment, CodePosition, placement_address
from repro.soc.scheduler import ParallelSchedule, load_parallel_session
from repro.soc.soc import Soc
from repro.stl.library import build_library
from repro.stl.packets import PhasedBuilder
from repro.stl.routine import RoutineContext
from repro.stl.routines.forwarding import make_forwarding_routine
from repro.stl.routines.interrupts import make_interrupt_routine
from repro.telemetry.phases import PHASE_EXECUTION, PHASE_LOADING
from repro.telemetry.session import TelemetrySession
from repro.utils.tables import format_table

#: Paper reference values (for side-by-side rendering only).
PAPER_TABLE1 = {1: (200_679, 117_965), 2: (717_538, 305_801), 3: (1_878_336, 663_386)}
PAPER_TABLE2 = {
    "A": (53_298, 64.14, 75.19, 79.61),
    "B": (57_506, 63.61, 79.59, 82.08),
    "C": (113_212, 56.24, 66.48, 68.79),
}
PAPER_TABLE3 = {
    ("A", "ICU"): (14_230, 46.57, 51.36),
    ("A", "HDCU"): (16_096, 62.53, 70.37),
    ("B", "ICU"): (13_149, 46.39, 50.97),
    ("B", "HDCU"): (15_783, 63.84, 70.12),
    ("C", "ICU"): (13_888, 54.94, 60.91),
    ("C", "HDCU"): (19_931, 65.66, 68.09),
}
PAPER_TABLE4 = {"TCM-based": (2_874, 16_463), "Cache-based": (0, 18_043)}


# ----------------------------------------------------------------------
# Table I — multi-core STL execution: stalls due to the memory subsystem.
# ----------------------------------------------------------------------

@dataclass
class Table1Result:
    """Stall totals per number of active cores."""

    rows: list[StallReport] = field(default_factory=list)

    def render(self) -> str:
        table_rows = []
        for report in self.rows:
            paper = PAPER_TABLE1.get(report.active_cores, ("-", "-"))
            table_rows.append(
                (
                    report.active_cores,
                    f"{report.total_if_stalls:,}",
                    f"{report.total_mem_stalls:,}",
                    f"{report.total_bus_wait_cycles:,}",
                    f"{paper[0]:,}" if paper[0] != "-" else "-",
                    f"{paper[1]:,}" if paper[1] != "-" else "-",
                )
            )
        return format_table(
            ("# Active Cores", "IF stalls", "MEM stalls", "bus wait",
             "paper IF", "paper MEM"),
            table_rows,
            title="Table I - multi-core STL execution: memory-subsystem stalls",
        )


#: Initial-release staggers each Table I row averages over.
TABLE1_EXECUTIONS = 3


def table1_stalls(
    repeat: int = 4,
    soc_config: SocConfig = DEFAULT_SOC_CONFIG,
) -> Table1Result:
    """Run the background STL in parallel on 1, 2 and 3 cores.

    The forwarding/interrupt routines are excluded, as in Section IV-B
    ("their behavior was analyzed separately").  Following the paper,
    each row averages ``TABLE1_EXECUTIONS`` runs with different initial-release
    staggers ("average values gathered across several executions ...
    varies depending on the initial SoC configuration").  Module
    recording is disabled: this experiment only reads stall counters.
    """
    result = Table1Result()
    monitor = StallMonitor()
    for active in (1, 2, 3):
        samples = []
        for execution in range(TABLE1_EXECUTIONS):
            soc = Soc(soc_config)
            libraries = {
                core_id: build_library(
                    MODELS[core_id], background_repeat=repeat,
                    include_module_tests=False,
                )
                for core_id in range(active)
            }
            schedule = ParallelSchedule.round_robin(libraries)
            entries = load_parallel_session(soc, libraries, schedule)
            for core_id, entry in sorted(entries.items()):
                soc.cores[core_id].recording = False
                soc.run_cycles((execution * 5 + core_id * 7) % 11)
                soc.start_core(core_id, entry)
            soc.run(max_cycles=30_000_000)
            samples.append(monitor.snapshot(soc))
        result.rows.append(_average_reports(samples))
    return result


def _average_reports(samples: list[StallReport]) -> StallReport:
    """Average several executions' per-core stall figures."""
    from repro.soc.debugger import CoreStallReport

    count = len(samples)
    per_core = []
    for index in range(len(samples[0].per_core)):
        cores = [sample.per_core[index] for sample in samples]
        per_core.append(
            CoreStallReport(
                core_id=cores[0].core_id,
                model=cores[0].model,
                cycles=sum(c.cycles for c in cores) // count,
                instret=sum(c.instret for c in cores) // count,
                if_stalls=sum(c.if_stalls for c in cores) // count,
                mem_stalls=sum(c.mem_stalls for c in cores) // count,
                hazard_stalls=sum(c.hazard_stalls for c in cores) // count,
                bus_wait_cycles=sum(c.bus_wait_cycles for c in cores) // count,
            )
        )
    return StallReport(
        active_cores=samples[0].active_cores, per_core=tuple(per_core)
    )


# ----------------------------------------------------------------------
# Table II — forwarding-logic fault coverage (no performance counters).
# ----------------------------------------------------------------------

@dataclass
class Table2Row:
    core: str
    num_faults: int
    no_cache: CoverageRange
    cached: CoverageRange


@dataclass
class Table2Result:
    rows: list[Table2Row] = field(default_factory=list)

    def render(self) -> str:
        table_rows = []
        for row in self.rows:
            paper = PAPER_TABLE2[row.core]
            cached = (
                f"{row.cached.minimum_percent:.2f}"
                if row.cached.stable
                else f"{row.cached.minimum_percent:.2f}-"
                f"{row.cached.maximum_percent:.2f} (UNSTABLE)"
            )
            table_rows.append(
                (
                    row.core,
                    f"{row.num_faults:,}",
                    f"{row.no_cache.minimum_percent:.2f} - "
                    f"{row.no_cache.maximum_percent:.2f}",
                    cached,
                    f"{paper[0]:,}",
                    f"{paper[1]:.2f} - {paper[2]:.2f}",
                    f"{paper[3]:.2f}",
                )
            )
        return format_table(
            ("Core", "# faults", "min-max FC% (no caches)", "FC% (caches)",
             "paper #", "paper min-max", "paper cached"),
            table_rows,
            title="Table II - forwarding logic fault simulation (no PCs)",
        )


def table2_forwarding(
    scenarios: tuple[Scenario, ...] | None = None,
    soc_config: SocConfig = DEFAULT_SOC_CONFIG,
) -> Table2Result:
    """FC oscillation without caches vs. stable FC with the wrapper."""
    if scenarios is None:
        scenarios = default_scenarios()
    plain = {
        i: make_forwarding_routine(m, with_pcs=False).builder_for(
            RoutineContext.for_core(i, m)
        )
        for i, m in MODELS.items()
    }
    plain_fc = _forwarding_campaign(plain, scenarios, soc_config)
    wrapped_fc = _forwarding_campaign(forwarding_builders(), scenarios, soc_config)
    result = Table2Result()
    # A core active in no scenario has no coverage range, hence no row.
    for core_id, model in MODELS.items():
        if core_id in plain_fc:
            result.rows.append(
                Table2Row(
                    core=model.name,
                    num_faults=get_modules(model).forwarding_fault_count,
                    no_cache=plain_fc[core_id],
                    cached=wrapped_fc[core_id],
                )
            )
    return result


def _forwarding_campaign(
    builders, scenarios, soc_config: SocConfig
) -> dict[int, CoverageRange]:
    """Core id -> its FWD coverage range over the scenarios it is active in.

    One in-process pass of the campaign (checkpoint in a temporary
    directory) — a failed scenario raises instead of leaving a hole in
    the table.
    """
    with tempfile.TemporaryDirectory() as tmp:
        outcomes = run_parallel_checkpointed_campaign(
            lambda: builders, scenarios, MODELS, tmp,
            modules=("FWD",), soc_config=soc_config,
        ).outcomes
    for outcome in outcomes.values():
        if outcome.failed:
            raise SimulationError(
                f"Table II scenario {outcome.label} failed: {outcome.error}"
            )
    return {
        core_id: spread
        for (_, core_id), spread in coverage_ranges(outcomes.values()).items()
    }


# ----------------------------------------------------------------------
# Table III — ICU and HDCU fault coverage + signature stability.
# ----------------------------------------------------------------------

@dataclass
class Table3Row:
    core: str
    module: str
    num_faults: int
    single_core_no_cache: float
    multicore_cached: float
    #: Multi-core *without* caches: verdict counts (the paper: "the test
    #: procedures inevitably failed in any configuration").
    no_cache_multicore_pass: int
    no_cache_multicore_fail: int


@dataclass
class Table3Result:
    rows: list[Table3Row] = field(default_factory=list)

    def render(self) -> str:
        table_rows = []
        for row in self.rows:
            paper = PAPER_TABLE3[(row.core, row.module)]
            table_rows.append(
                (
                    row.core,
                    row.module,
                    f"{row.num_faults:,}",
                    f"{row.single_core_no_cache:.2f}",
                    f"{row.multicore_cached:.2f}",
                    f"{row.no_cache_multicore_fail}/"
                    f"{row.no_cache_multicore_fail + row.no_cache_multicore_pass}",
                    f"{paper[0]:,}",
                    f"{paper[1]:.2f}",
                    f"{paper[2]:.2f}",
                )
            )
        return format_table(
            ("Core", "Module", "# faults", "FC% single, no caches",
             "FC% multi, caches", "multi no-cache FAILs",
             "paper #", "paper single", "paper cached"),
            table_rows,
            title="Table III - ICU and HDCU fault simulation results",
        )


def _module_routine(module: str, model: CoreModel):
    if module == "ICU":
        return make_interrupt_routine(model)
    return make_forwarding_routine(model, with_pcs=True)


def table3_icu_hdcu(
    multicore_scenarios: tuple[Scenario, ...] | None = None,
    soc_config: SocConfig = DEFAULT_SOC_CONFIG,
) -> Table3Result:
    """Single-core-no-cache FC vs. multi-core cache-based FC, plus the
    no-cache multi-core signature failures."""
    if multicore_scenarios is None:
        multicore_scenarios = default_scenarios()[::3]
    result = Table3Result()
    contexts = {i: RoutineContext.for_core(i, m) for i, m in MODELS.items()}
    for module in ("ICU", "HDCU"):
        pcs = module == "HDCU"
        # Finalised (expected-signature-bearing) program variants.
        plain_builders = {}
        wrapped_builders = {}
        for core_id, model in MODELS.items():
            routine = _module_routine(module, model)
            ctx = contexts[core_id]
            base = placement_address(CodePosition.LOW, CodeAlignment.QWORD, core_id)

            def build_plain(expected, routine=routine, ctx=ctx, base=base):
                return routine.build_single_core(base, ctx, expected)

            plain_program, plain_expected = finalise_with_expected(
                build_plain, core_id, soc_config
            )

            def plain_builder(
                addr, routine=routine, ctx=ctx, expected=plain_expected
            ):
                return routine.build_single_core(addr, ctx, expected)

            plain_builders[core_id] = plain_builder

            def build_wrapped(expected, routine=routine, ctx=ctx, base=base):
                return cache_wrapped_builder(routine, ctx, expected)(base)

            _, wrapped_expected = finalise_with_expected(
                build_wrapped, core_id, soc_config
            )
            wrapped_builders[core_id] = cache_wrapped_builder(
                routine, ctx, wrapped_expected
            )
        # Single-core, no caches (reference FC and stable signature).
        single_runs = {
            core_id: run_scenario(
                plain_builders,
                single_core_scenarios(core_id)[0],
                soc_config,
                pcs_observable=pcs,
            )
            for core_id in MODELS
        }
        # Multi-core without caches: the failing configuration.
        plain_multi = [
            run_scenario(plain_builders, s, soc_config, pcs_observable=pcs)
            for s in multicore_scenarios
        ]
        # Multi-core with the cache-based wrapper.
        wrapped_multi = [
            run_scenario(wrapped_builders, s, soc_config, pcs_observable=pcs)
            for s in multicore_scenarios
        ]
        for core_id, model in MODELS.items():
            single_cov = module_coverage(
                module, single_runs[core_id].per_core[core_id].log, model
            )
            cached_covs = [
                module_coverage(module, r.per_core[core_id].log, model)
                for r in wrapped_multi
                if core_id in r.per_core
            ]
            cached = coverage_range(cached_covs)
            verdicts = signature_stability(plain_multi, core_id)
            result.rows.append(
                Table3Row(
                    core=model.name,
                    module=module,
                    num_faults=single_cov.total_faults,
                    single_core_no_cache=single_cov.coverage_percent,
                    multicore_cached=cached.maximum_percent,
                    no_cache_multicore_pass=verdicts.pass_count,
                    no_cache_multicore_fail=verdicts.fail_count,
                )
            )
    return result


# ----------------------------------------------------------------------
# Table IV — TCM-based versus cache-based strategy.
# ----------------------------------------------------------------------

@dataclass
class Table4Row:
    approach: str
    memory_overhead_bytes: int
    execution_cycles: int

    def microseconds(self, frequency_hz: int) -> float:
        return 1e6 * self.execution_cycles / frequency_hz


@dataclass
class Table4Result:
    rows: list[Table4Row] = field(default_factory=list)
    frequency_hz: int = 180_000_000

    def render(self) -> str:
        table_rows = []
        for row in self.rows:
            paper = PAPER_TABLE4[row.approach]
            table_rows.append(
                (
                    row.approach,
                    row.memory_overhead_bytes,
                    f"{row.execution_cycles:,}",
                    f"{row.microseconds(self.frequency_hz):.2f}",
                    f"{paper[0]:,}",
                    f"{paper[1]:,}",
                )
            )
        return format_table(
            ("Approach", "Memory overhead [B]", "Execution [cycles]",
             "at 180 MHz [us]", "paper overhead", "paper cycles"),
            table_rows,
            title="Table IV - TCM-based vs cache-based (imprecise interrupts)",
        )


def table4_tcm_vs_cache(
    core_id: int = 0, soc_config: SocConfig = DEFAULT_SOC_CONFIG
) -> Table4Result:
    """Memory/time trade-off of the two strategies on one core."""
    model = MODELS[core_id]
    ctx = RoutineContext.for_core(core_id, model)
    routine = make_interrupt_routine(model)
    base = placement_address(CodePosition.LOW, CodeAlignment.QWORD, core_id)
    result = Table4Result(frequency_hz=soc_config.frequency_hz)

    deployment = build_tcm_wrapped(routine, base, ctx)
    soc = Soc(soc_config)
    deployment.load(soc, core_id)
    soc.start_core(core_id, deployment.entry_point)
    soc.run(max_cycles=DEFAULT_MAX_CYCLES)
    result.rows.append(
        Table4Row(
            approach="TCM-based",
            memory_overhead_bytes=deployment.reserved_tcm_bytes,
            execution_cycles=soc.cores[core_id].cycles,
        )
    )

    wrapped = cache_wrapped_builder(routine, ctx)(base)
    soc = run_alone(wrapped, core_id, soc_config)
    result.rows.append(
        Table4Row(
            approach="Cache-based",
            memory_overhead_bytes=0,
            execution_cycles=soc.cores[core_id].cycles,
        )
    )
    return result


# ----------------------------------------------------------------------
# Fig. 1 — forwarding path vs. broken forwarding path.
# ----------------------------------------------------------------------

@dataclass
class Fig1Result:
    single_core_diagram: str
    contended_diagram: str
    single_core_stalls: int
    contended_stalls: int

    def render(self) -> str:
        return (
            "Fig. 1a - stall-free stream (EX->EX path excited):\n"
            f"{self.single_core_diagram}\n\n"
            "Fig. 1b - contended fetch (forwarding broken, RF read):\n"
            f"{self.contended_diagram}\n\n"
            f"additional stalls observed by the performance counters: "
            f"{self.contended_stalls - self.single_core_stalls}"
        )


def _fig1_program(base: int) -> "PhasedBuilder":
    asm = PhasedBuilder(base, "fig1")
    asm.li(4, 0x1010)
    asm.li(5, 0x0202)
    asm.li(6, 0x4040)
    asm.align()
    asm.nop(2)
    # The paper's pair: add r7,r6,r5 immediately consumed by add r9,r7,r4.
    asm.packet(Instruction(Mnemonic.ADD, rd=7, rs1=6, rs2=5))
    asm.packet(Instruction(Mnemonic.ADD, rd=9, rs1=7, rs2=4))
    asm.nop(4)
    asm.halt()
    return asm


def fig1_pipeline_traces(soc_config: SocConfig = DEFAULT_SOC_CONFIG) -> Fig1Result:
    """The paper's motivating example, traced on the simulator."""
    # Stall-free: run from the I-TCM (perfect fetch).
    soc = Soc(soc_config)
    core = soc.cores[0]
    base = core.itcm.base
    program = _fig1_program(base).build()
    for address, word in zip(
        range(base, base + program.size_bytes, 4), program.encoded_words()
    ):
        core.itcm.write_word(address, word)
    core.keep_trace = True
    soc.start_core(0, base)
    soc.run(max_cycles=10_000)
    single_uops = [u for u in core.trace if u.instr.mnemonic is Mnemonic.ADD]
    single_stalls = core.ifstall + core.hazstall
    single_diagram = render_pipeline_diagram(single_uops)

    # Contended: same code in flash while two other cores hammer the bus.
    soc = Soc(soc_config)
    program = _fig1_program(0x200).build()
    soc.load(program)
    busy = PhasedBuilder(0x8000, "busy")
    busy.label("spin")
    busy.nop(16)
    busy.j("spin")
    busy_program = busy.build()
    soc.load(busy_program)
    for other in (1, 2):
        soc.cores[other].recording = False
        soc.start_core(other, 0x8000)
    soc.run_cycles(7)
    core = soc.cores[0]
    core.keep_trace = True
    soc.start_core(0, 0x200)
    for _ in range(3_000):
        if core.done:
            break
        soc.step()
    contended_uops = [u for u in core.trace if u.instr.mnemonic is Mnemonic.ADD]
    contended_stalls = core.ifstall + core.hazstall
    return Fig1Result(
        single_core_diagram=single_diagram,
        contended_diagram=render_pipeline_diagram(contended_uops),
        single_core_stalls=single_stalls,
        contended_stalls=contended_stalls,
    )


# ----------------------------------------------------------------------
# Fig. 2 — structure of the cache-based strategy.
# ----------------------------------------------------------------------

@dataclass
class Fig2Result:
    """Structural + runtime audit of the wrapper (Fig. 2b semantics)."""

    wrapped_size_bytes: int
    single_size_bytes: int
    loading_loop_fills: int
    execution_loop_fills: int
    #: Activations recorded outside the test window (never observable).
    outside_window_records: int
    observable_records: int
    signature_matches_single_core: bool

    def render(self) -> str:
        rows = [
            ("single-core program size [B]", self.single_size_bytes),
            ("cache-based program size [B]", self.wrapped_size_bytes),
            ("I$ line fills during loading loop", self.loading_loop_fills),
            ("I$ line fills during execution loop", self.execution_loop_fills),
            ("activations outside test window (unobservable)",
             self.outside_window_records),
            ("observable activations, in the test window",
             self.observable_records),
            ("execution-loop signature == single-core golden",
             self.signature_matches_single_core),
        ]
        return format_table(
            ("property", "value"),
            rows,
            title="Fig. 2 - cache-based strategy: structural/runtime audit",
        )


def fig2_structure_audit(
    core_id: int = 0, soc_config: SocConfig = DEFAULT_SOC_CONFIG
) -> Fig2Result:
    """Verify the wrapper implements Fig. 2b's blocks as specified."""
    from repro.core.cache_wrapper import build_cache_wrapped
    from repro.core.golden import golden_signature
    from repro.stl.conventions import SIG_REG

    model = MODELS[core_id]
    ctx = RoutineContext.for_core(core_id, model)
    routine = make_forwarding_routine(model, with_pcs=False)
    base = placement_address(CodePosition.LOW, CodeAlignment.QWORD, core_id)
    single = routine.build_single_core(base, ctx)
    wrapped = build_cache_wrapped(routine, base, ctx)

    soc = Soc(soc_config)
    soc.load(wrapped)
    core = soc.cores[core_id]
    # The metrics split every I-cache fill by the phase it happened in.
    session = TelemetrySession.attach(soc, keep_events=False)
    soc.start_core(core_id, base)
    soc.run(max_cycles=DEFAULT_MAX_CYCLES)
    metrics = session.metrics.snapshot()
    fills = f"{core.icache.config.name}.fills"
    observable = sum(1 for r in core.log.forwarding if r.observable)
    golden = golden_signature(single, core_id, soc_config)
    return Fig2Result(
        wrapped_size_bytes=wrapped.size_bytes,
        single_size_bytes=single.size_bytes,
        loading_loop_fills=metrics.get(core_id, PHASE_LOADING, fills),
        execution_loop_fills=metrics.get(core_id, PHASE_EXECUTION, fills),
        outside_window_records=len(core.log.forwarding) - observable,
        observable_records=observable,
        signature_matches_single_core=core.regfile.read(SIG_REG) == golden,
    )
