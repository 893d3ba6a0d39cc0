"""repro — deterministic cache-based execution of on-line self-test
routines in multi-core automotive SoCs.

A faithful, simulator-based reproduction of Floridia et al., DATE 2020:
a cycle-level triple-core automotive SoC (dual-issue pipelines, private
caches/TCMs, shared flash bus), a software test library with the
paper's forwarding and imprecise-interrupt SBST routines, a gate-level
stuck-at fault-simulation flow, and — the paper's contribution — the
cache-based wrapper that makes boot-time self-test execution
deterministic in a multi-core system.

Quick start::

    from repro import (
        CORE_MODEL_A, RoutineContext, Soc,
        make_forwarding_routine, build_cache_wrapped, golden_signature,
    )

    routine = make_forwarding_routine(CORE_MODEL_A, with_pcs=False)
    ctx = RoutineContext.for_core(0, CORE_MODEL_A)
    program = build_cache_wrapped(routine, 0x1000, ctx)
    print(hex(golden_signature(program, core_index=0)))

See ``examples/`` for complete scenarios and ``benchmarks/`` for the
reproduction of every table and figure in the paper's evaluation.
"""

from repro.core import (
    CacheWrapperOptions,
    Scenario,
    build_cache_wrapped,
    build_tcm_wrapped,
    cache_wrapped_builder,
    default_scenarios,
    finalise_with_expected,
    golden_signature,
    run_alone,
    run_scenario,
    signature_stability,
    single_core_scenarios,
    split_routine,
    validate_cache_residency,
)
from repro.cpu import (
    CORE_MODEL_A,
    CORE_MODEL_B,
    CORE_MODEL_C,
    Core,
    CoreModel,
)
from repro.faults import get_modules, module_coverage
from repro.soc import (
    CodeAlignment,
    CodePosition,
    Soc,
    SocConfig,
    StallMonitor,
    placement_address,
)
from repro.stl import (
    RoutineContext,
    SoftwareTestLibrary,
    TestRoutine,
    build_library,
)
from repro.stl.routines import (
    make_background_routines,
    make_forwarding_routine,
    make_interrupt_routine,
)

__version__ = "1.0.0"

__all__ = [
    "CacheWrapperOptions",
    "Scenario",
    "build_cache_wrapped",
    "build_tcm_wrapped",
    "cache_wrapped_builder",
    "default_scenarios",
    "finalise_with_expected",
    "golden_signature",
    "run_alone",
    "run_scenario",
    "signature_stability",
    "single_core_scenarios",
    "split_routine",
    "validate_cache_residency",
    "CORE_MODEL_A",
    "CORE_MODEL_B",
    "CORE_MODEL_C",
    "Core",
    "CoreModel",
    "get_modules",
    "module_coverage",
    "CodeAlignment",
    "CodePosition",
    "Soc",
    "SocConfig",
    "StallMonitor",
    "placement_address",
    "RoutineContext",
    "SoftwareTestLibrary",
    "TestRoutine",
    "build_library",
    "make_background_routines",
    "make_forwarding_routine",
    "make_interrupt_routine",
    "__version__",
]
