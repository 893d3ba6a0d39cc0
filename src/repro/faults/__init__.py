"""Gate-level stuck-at fault model and PPSFP fault simulator."""

from repro.faults.atpg import (
    AtpgResult,
    forwarding_ceiling,
    forwarding_select_constraint,
    random_pattern_atpg,
)
from repro.faults.campaign import (
    COVERAGE_GRADERS,
    CampaignCheckpoint,
    CoverageRange,
    ModuleCoverage,
    ScenarioOutcome,
    coverage_range,
    coverage_ranges,
    grade_scenario,
    module_coverage,
)
from repro.faults.chaos import ChaosError, ChaosPolicy, ShardChaos, corrupt_file
from repro.faults.compiled import CompiledNetlist, compiled_for
from repro.faults.orchestrator import (
    OrchestrationReport,
    ParallelCampaignResult,
    RetryPolicy,
    ShardAttempt,
    resolve_workers,
    run_parallel_checkpointed_campaign,
)
from repro.faults.soft_errors import (
    AlwaysGlitch,
    BusGlitcher,
    CycleTrigger,
    ExecutionEntryCorruption,
    GlitchStats,
    InjectionRecord,
    SoftErrorInjector,
)
from repro.faults.transition import (
    TransitionFault,
    enumerate_transition_faults,
    transition_fault_simulate,
)
from repro.faults.gates import GateKind, eval_gate
from repro.faults.generators import (
    CoreModules,
    generate_forwarding_port,
    generate_hdcu_port,
    generate_icu,
    get_modules,
)
from repro.faults.netlist import Gate, Netlist
from repro.faults.observability import (
    forwarding_pattern_sets,
    hdcu_pattern_sets,
    icu_pattern_set,
)
from repro.faults.ppsfp import (
    ENGINES,
    DropSet,
    FaultSimResult,
    PatternSet,
    fault_simulate,
    good_simulation,
)
from repro.faults.stuckat import StuckAtFault, collapse_faults, enumerate_faults

__all__ = [
    "AtpgResult",
    "forwarding_ceiling",
    "forwarding_select_constraint",
    "random_pattern_atpg",
    "COVERAGE_GRADERS",
    "CampaignCheckpoint",
    "CoverageRange",
    "ModuleCoverage",
    "ScenarioOutcome",
    "coverage_range",
    "coverage_ranges",
    "grade_scenario",
    "module_coverage",
    "ChaosError",
    "ChaosPolicy",
    "ShardChaos",
    "corrupt_file",
    "CompiledNetlist",
    "compiled_for",
    "OrchestrationReport",
    "ParallelCampaignResult",
    "RetryPolicy",
    "ShardAttempt",
    "resolve_workers",
    "run_parallel_checkpointed_campaign",
    "AlwaysGlitch",
    "BusGlitcher",
    "CycleTrigger",
    "ExecutionEntryCorruption",
    "GlitchStats",
    "InjectionRecord",
    "SoftErrorInjector",
    "TransitionFault",
    "enumerate_transition_faults",
    "transition_fault_simulate",
    "GateKind",
    "eval_gate",
    "CoreModules",
    "generate_forwarding_port",
    "generate_hdcu_port",
    "generate_icu",
    "get_modules",
    "Gate",
    "Netlist",
    "forwarding_pattern_sets",
    "hdcu_pattern_sets",
    "icu_pattern_set",
    "ENGINES",
    "DropSet",
    "FaultSimResult",
    "PatternSet",
    "fault_simulate",
    "good_simulation",
    "StuckAtFault",
    "collapse_faults",
    "enumerate_faults",
]
