"""Ablations of the methodology's design choices (DESIGN.md section 6).

Each ablation removes one rule of Section III and measures what breaks:

* **no loading loop** — the "execution" pass runs on a cold cache, so
  fetch gaps reappear inside the observable window and the fault
  coverage drops below the full wrapper's (and may oscillate again);
* **no invalidation** — the routine's timing depends on whatever the
  caches held before it started: back-to-back invocations of the same
  test no longer take the same number of cycles;
* **no dummy loads under no-write-allocate** — the execution loop keeps
  missing on its stores, so it is no longer isolated from the bus.
"""

from repro.core import CacheWrapperOptions, build_cache_wrapped, cache_wrapped_builder
from repro.core.determinism import default_scenarios, run_scenario
from repro.cpu.core import CORE_MODEL_A, CORE_MODEL_B, CORE_MODEL_C
from repro.faults import coverage_range, module_coverage
from repro.soc import Soc
from repro.stl import RoutineContext
from repro.stl.routine import TestRoutine
from repro.stl.conventions import DATA_PTR
from repro.stl.routines import make_forwarding_routine
from repro.stl.signature import emit_signature_update
from repro.utils.tables import format_table

MODELS = {0: CORE_MODEL_A, 1: CORE_MODEL_B, 2: CORE_MODEL_C}


def _loading_loop_ablation():
    ctxs = {i: RoutineContext.for_core(i, m) for i, m in MODELS.items()}
    scenarios = default_scenarios()[::4]
    outcomes = {}
    for label, options in (
        ("full wrapper", CacheWrapperOptions()),
        ("no loading loop", CacheWrapperOptions(loading_loop=False)),
    ):
        builders = {
            i: cache_wrapped_builder(
                make_forwarding_routine(m, with_pcs=False), ctxs[i], options=options
            )
            for i, m in MODELS.items()
        }
        results = [run_scenario(builders, s) for s in scenarios]
        coverages = [
            module_coverage("FWD", r.per_core[0].log, CORE_MODEL_A) for r in results
        ]
        outcomes[label] = coverage_range(coverages)
    return outcomes


def _pollutant_program():
    """Dirty every D-cache set, like an application that ran before the
    boot-time test."""
    from repro.stl.packets import PhasedBuilder

    asm = PhasedBuilder(0x0002_0000, "pollutant")
    asm.li(2, 0x2008_0000)
    asm.li(3, 160)  # lines to dirty (> 128 sets x ways)
    asm.li(4, 0x5117)
    asm.label("dirty")
    asm.sw(4, 0, 2)
    asm.addi(2, 2, 32)
    asm.addi(3, 3, -1)
    asm.bne(3, 0, "dirty")
    asm.halt()
    return asm.build()


def _invalidate_ablation():
    """Run the wrapped routine on a cold SoC and after a D-cache-dirtying
    application; only invalidation makes the two runs identical."""
    routine = _store_heavy_routine()
    ctx = RoutineContext.for_core(0, CORE_MODEL_A)
    outcomes = {}
    for label, options in (
        ("with invalidation", CacheWrapperOptions()),
        ("no invalidation", CacheWrapperOptions(invalidate=False)),
    ):
        program = build_cache_wrapped(routine, 0x1000, ctx, options=options)
        runs = []
        for polluted in (False, True):
            soc = Soc()
            soc.load(program)
            core = soc.cores[0]
            # Pre-enable the D-cache so the pollutant really dirties it.
            core.memunit.dcache_enabled = True
            if polluted:
                soc.load(_pollutant_program())
                soc.start_core(0, 0x0002_0000)
                soc.run(max_cycles=2_000_000)
            start_cycles = core.cycles
            start_writebacks = core.dcache.stats.writebacks
            soc.start_core(0, 0x1000)
            soc.run(max_cycles=2_000_000)
            runs.append(
                (
                    core.cycles - start_cycles,
                    core.dcache.stats.writebacks - start_writebacks,
                )
            )
        outcomes[label] = runs
    return outcomes


def _store_heavy_routine():
    def emit_body(asm, ctx):
        for i in range(8):
            asm.li(1, 0x2000 + i)
            asm.sw(1, 32 * i, DATA_PTR)
            emit_signature_update(asm, 1)

    return TestRoutine("store_heavy", "GEN", emit_body)


def _dummy_load_ablation():
    ctx = RoutineContext.for_core(0, CORE_MODEL_A)
    outcomes = {}
    for label, options in (
        ("NWA + dummy loads", CacheWrapperOptions(write_allocate=False)),
        (
            "NWA, no dummy loads",
            CacheWrapperOptions(write_allocate=False, dummy_loads=False),
        ),
    ):
        program = build_cache_wrapped(
            _store_heavy_routine(), 0x1000, ctx, options=options
        )
        soc = Soc()
        soc.load(program)
        core = soc.cores[0]
        soc.start_core(0, 0x1000)
        at_execution = None
        for _ in range(2_000_000):
            soc.step()
            if at_execution is None and core.testwin & 1:
                at_execution = core.dcache.stats.write_miss_bypasses
            if core.done:
                break
        outcomes[label] = core.dcache.stats.write_miss_bypasses - (at_execution or 0)
    return outcomes


def run_all_ablations():
    return _loading_loop_ablation(), _invalidate_ablation(), _dummy_load_ablation()


def test_ablations(benchmark, emit):
    loading, invalidation, dummy = benchmark.pedantic(
        run_all_ablations, rounds=1, iterations=1
    )
    rows = []
    for label, fc in loading.items():
        rows.append(
            ("loading loop", label,
             f"FC {fc.minimum_percent:.2f}-{fc.maximum_percent:.2f}%")
        )
    for label, runs in invalidation.items():
        (cold_cycles, cold_wb), (dirty_cycles, dirty_wb) = runs
        rows.append(
            ("invalidation", label,
             f"cold {cold_cycles:,} cyc / {cold_wb} wb; "
             f"after dirty app {dirty_cycles:,} cyc / {dirty_wb} wb")
        )
    for label, bypasses in dummy.items():
        rows.append(
            ("dummy loads", label, f"execution-loop write misses: {bypasses}")
        )
    emit(format_table(("rule", "variant", "observed"), rows,
                      title="Ablations of the Section III rules"))
    # No loading loop: coverage drops below the full wrapper's floor.
    assert (
        loading["no loading loop"].maximum_percent
        < loading["full wrapper"].minimum_percent
    )
    # Full wrapper: deterministic; both claims from Table II hold.
    assert loading["full wrapper"].stable
    # Invalidation isolates the test from the previous application's
    # cache state: identical timing and no inherited write-backs.  The
    # ablated wrapper inherits dirty victims and loses reproducibility.
    (cold, dirty) = invalidation["with invalidation"]
    assert cold == dirty
    assert dirty[1] == 0
    (cold_ab, dirty_ab) = invalidation["no invalidation"]
    assert dirty_ab[1] > 0
    assert dirty_ab != cold_ab
    # Dummy loads keep the execution loop's stores off the bus.
    assert dummy["NWA + dummy loads"] == 0
    assert dummy["NWA, no dummy loads"] > 0
