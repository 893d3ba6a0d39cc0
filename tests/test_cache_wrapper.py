"""Tests of the cache-based deterministic execution wrapper (Fig. 2b)."""

from repro.core import (
    CacheWrapperOptions,
    build_cache_wrapped,
    golden_signature,
)
from repro.cpu.core import CORE_MODEL_A
from repro.isa.instructions import Mnemonic
from repro.stl import RoutineContext
from repro.stl.routines import make_forwarding_routine
from tests.conftest import run_program

CTX = RoutineContext.for_core(0, CORE_MODEL_A)


def small_routine():
    return make_forwarding_routine(
        CORE_MODEL_A, with_pcs=False, patterns_per_path=1, load_use_blocks=1
    )


def test_wrapper_structure_blocks():
    program = build_cache_wrapped(small_routine(), 0x1000, CTX)
    mnemonics = [i.mnemonic for i in program.code[:8]]
    # Block b: cache configuration + invalidation before everything else.
    assert Mnemonic.CSRW in mnemonics
    assert Mnemonic.ICINV in mnemonics
    assert Mnemonic.DCINV in mnemonics
    assert "wrapper_loop" in program.symbols


def test_body_executes_twice():
    routine = small_routine()
    single = routine.build_single_core(0x1000, CTX)
    wrapped = build_cache_wrapped(routine, 0x1000, CTX)
    _, single_core = run_program(single)
    _, wrapped_core = run_program(wrapped)
    # Twice the body, modest wrapper overhead.
    assert wrapped_core.instret > 1.9 * single_core.instret


def test_loading_loop_is_unobservable_execution_observable():
    routine = small_routine()
    wrapped = build_cache_wrapped(routine, 0x1000, CTX)
    _, core = run_program(wrapped)
    observable = [r for r in core.log.forwarding if r.observable]
    hidden = [r for r in core.log.forwarding if not r.observable]
    # The two iterations produce near-identical record counts.
    assert observable and hidden
    assert abs(len(observable) - len(hidden)) < 0.1 * len(observable)


def test_execution_loop_runs_entirely_from_cache():
    routine = small_routine()
    wrapped = build_cache_wrapped(routine, 0x1000, CTX)
    from repro.soc import Soc

    soc = Soc()
    soc.load(wrapped)
    core = soc.cores[0]
    soc.start_core(0, 0x1000)
    fills_at_execution_start = None
    for _ in range(2_000_000):
        soc.step()
        if fills_at_execution_start is None and core.testwin & 1:
            fills_at_execution_start = core.icache.stats.fills
        if core.done:
            break
    assert core.done
    assert fills_at_execution_start is not None
    assert core.icache.stats.fills == fills_at_execution_start


def test_signature_matches_unwrapped_single_core():
    routine = small_routine()
    single = routine.build_single_core(0x1000, CTX)
    wrapped = build_cache_wrapped(routine, 0x1000, CTX)
    assert golden_signature(single, 0) == golden_signature(wrapped, 0)


def test_memory_footprint_overhead_is_small_and_ram_free():
    routine = small_routine()
    single = routine.build_single_core(0x1000, CTX)
    wrapped = build_cache_wrapped(routine, 0x1000, CTX)
    # Flash overhead: a few dozen bytes of wrapper ("negligible").
    assert wrapped.size_bytes - single.size_bytes < 128


def test_no_loading_loop_ablation_runs_once():
    routine = small_routine()
    options = CacheWrapperOptions(loading_loop=False)
    wrapped = build_cache_wrapped(routine, 0x1000, CTX, options=options)
    full = build_cache_wrapped(routine, 0x1000, CTX)
    _, once = run_program(wrapped)
    _, twice = run_program(full)
    assert twice.instret > 1.7 * once.instret


def test_no_invalidate_ablation_skips_invalidation():
    options = CacheWrapperOptions(invalidate=False)
    wrapped = build_cache_wrapped(small_routine(), 0x1000, CTX, options=options)
    mnemonics = {i.mnemonic for i in wrapped.code}
    assert Mnemonic.ICINV not in mnemonics


def test_dummy_loads_follow_stores_under_no_write_allocate():
    options = CacheWrapperOptions(write_allocate=False)
    routine = make_forwarding_routine(
        CORE_MODEL_A, with_pcs=False, patterns_per_path=1, load_use_blocks=2
    )
    wrapped = build_cache_wrapped(routine, 0x1000, CTX, options=options)
    code = wrapped.code
    stores = [i for i, instr in enumerate(code) if instr.spec.is_store]
    assert stores
    for index in stores:
        follower = code[index + 1]
        assert follower.spec.is_load
        assert follower.rs1 == code[index].rs1
        assert follower.imm == code[index].imm


def test_write_allocate_needs_no_dummy_loads():
    wrapped = build_cache_wrapped(small_routine(), 0x1000, CTX)
    code = wrapped.code
    stores = [i for i, instr in enumerate(code) if instr.spec.is_store]
    # At least one store is NOT followed by a load of the same address.
    assert any(
        not code[i + 1].spec.is_load or code[i + 1].rs1 != code[i].rs1
        for i in stores
    )


def store_heavy_routine():
    """A body whose stores are never followed by loads — the case the
    no-write-allocate dummy-load rule exists for."""
    from repro.stl.conventions import DATA_PTR
    from repro.stl.routine import TestRoutine
    from repro.stl.signature import emit_signature_update

    def emit_body(asm, ctx):
        for i in range(8):
            asm.li(1, 0x1000 + i)
            asm.sw(1, 32 * i, DATA_PTR)
            emit_signature_update(asm, 1)

    return TestRoutine("store_heavy", "GEN", emit_body)


def test_nwa_execution_loop_store_hits():
    """With no-write-allocate + dummy loads, the execution loop's stores
    must all hit in the D-cache (the dummy loads pulled the lines in)."""
    options = CacheWrapperOptions(write_allocate=False)
    routine = store_heavy_routine()
    wrapped = build_cache_wrapped(routine, 0x1000, CTX, options=options)
    from repro.soc import Soc

    soc = Soc()
    soc.load(wrapped)
    core = soc.cores[0]
    soc.start_core(0, 0x1000)
    bypasses_at_execution = None
    for _ in range(2_000_000):
        soc.step()
        if bypasses_at_execution is None and core.testwin & 1:
            bypasses_at_execution = core.dcache.stats.write_miss_bypasses
        if core.done:
            break
    assert bypasses_at_execution is not None
    # The loading loop's stores do miss and bypass (that is what the
    # dummy loads then repair), so the counter the metrics report
    # surfaces is live by the time the window opens ...
    assert bypasses_at_execution > 0
    # ... and never moves again: every execution-loop store hits.
    assert core.dcache.stats.write_miss_bypasses == bypasses_at_execution


def test_nwa_without_dummy_loads_keeps_missing():
    """Ablation: dropping the dummy-load rule leaves write misses in the
    execution loop — the traffic the rule exists to remove."""
    options = CacheWrapperOptions(write_allocate=False, dummy_loads=False)
    wrapped = build_cache_wrapped(store_heavy_routine(), 0x1000, CTX, options=options)
    from repro.soc import Soc

    soc = Soc()
    soc.load(wrapped)
    core = soc.cores[0]
    soc.start_core(0, 0x1000)
    bypasses_at_execution = None
    for _ in range(2_000_000):
        soc.step()
        if bypasses_at_execution is None and core.testwin & 1:
            bypasses_at_execution = core.dcache.stats.write_miss_bypasses
        if core.done:
            break
    assert core.dcache.stats.write_miss_bypasses > bypasses_at_execution
