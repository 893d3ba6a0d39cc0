"""The paper's contribution: deterministic cache-based SBST execution.

Public surface of the methodology:

* :func:`build_cache_wrapped` / :class:`CacheWrapperOptions` — the
  Fig. 2b transformation (loading loop + execution loop + invalidation,
  dummy loads under no-write-allocate);
* :func:`build_tcm_wrapped` — the TCM/scratchpad strategy compared in
  Table IV;
* :func:`split_routine` — rule 2.2 splitting;
* :func:`validate_cache_residency` — rules 2.1/2.2 static checks;
* :func:`finalise_with_expected` / :func:`golden_signature` — reference
  signature derivation;
* :func:`run_scenario` + :func:`signature_stability` — the Section IV-C
  determinism experiments (the graded campaign over many scenarios is
  :func:`repro.faults.run_parallel_checkpointed_campaign`).
"""

from repro.core.cache_wrapper import (
    CacheWrapperOptions,
    DummyLoadBuilder,
    build_cache_wrapped,
    cache_wrapped_builder,
)
from repro.core.determinism import (
    CoreRunResult,
    Scenario,
    ScenarioResult,
    default_scenarios,
    run_scenario,
    single_core_scenarios,
)
from repro.core.golden import (
    finalise_with_expected,
    golden_signature,
    run_alone,
)
from repro.core.report import SignatureStability, signature_stability
from repro.core.splitter import split_routine
from repro.core.tcm_wrapper import TcmDeployment, build_tcm_body, build_tcm_wrapped
from repro.core.validator import ValidationReport, validate_cache_residency

__all__ = [
    "CacheWrapperOptions",
    "DummyLoadBuilder",
    "build_cache_wrapped",
    "cache_wrapped_builder",
    "CoreRunResult",
    "Scenario",
    "ScenarioResult",
    "default_scenarios",
    "run_scenario",
    "single_core_scenarios",
    "finalise_with_expected",
    "golden_signature",
    "run_alone",
    "SignatureStability",
    "signature_stability",
    "split_routine",
    "TcmDeployment",
    "build_tcm_body",
    "build_tcm_wrapped",
    "ValidationReport",
    "validate_cache_residency",
]
