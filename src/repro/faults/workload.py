"""Standard, picklable campaign workloads.

A :func:`repro.faults.orchestrator.run_parallel_checkpointed_campaign`
pool worker reconstructs its program builders inside the worker
process, so the *provider* must be picklable — a module-level function
or a :func:`functools.partial` of one, never a closure.  This module
hosts the canonical providers used by ``python -m repro faultsim`` and
the differential test suite: the paper's three-core SoC (models A, B,
C) each running its own cache-wrapped forwarding routine.
"""

from __future__ import annotations

from functools import partial

from repro.cpu.core import CORE_MODEL_A, CORE_MODEL_B, CORE_MODEL_C, CoreModel

#: The case-study SoC: core id -> processor model (Section IV-A).
DEFAULT_CAMPAIGN_MODELS: dict[int, CoreModel] = {
    0: CORE_MODEL_A,
    1: CORE_MODEL_B,
    2: CORE_MODEL_C,
}


def forwarding_builders(
    patterns_per_path: int | None = None,
    load_use_blocks: int | None = None,
):
    """Cache-wrapped forwarding-routine builders for each core.

    ``patterns_per_path``/``load_use_blocks`` default to the routine
    generator's full-size defaults; pass 1/1 for the smoke-sized bodies
    the differential tests use.  Module-level on purpose: a
    ``partial`` of this function pickles by reference into workers.
    """
    # Imported here so unpickling this module in a worker stays cheap.
    from repro.core import cache_wrapped_builder
    from repro.stl import RoutineContext
    from repro.stl.routines import make_forwarding_routine

    kwargs: dict = {"with_pcs": False}
    if patterns_per_path is not None:
        kwargs["patterns_per_path"] = patterns_per_path
    if load_use_blocks is not None:
        kwargs["load_use_blocks"] = load_use_blocks
    builders = {}
    for core_id, model in DEFAULT_CAMPAIGN_MODELS.items():
        ctx = RoutineContext.for_core(core_id, model)
        routine = make_forwarding_routine(model, **kwargs)
        builders[core_id] = cache_wrapped_builder(routine, ctx)
    return builders


def standard_provider():
    """Zero-arg picklable provider: the full-size forwarding workload."""
    return partial(forwarding_builders)


def small_provider():
    """Zero-arg picklable provider: smoke-sized bodies (CI, tests)."""
    return partial(forwarding_builders, 1, 1)
