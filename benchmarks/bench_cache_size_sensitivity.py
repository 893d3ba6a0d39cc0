"""Extension — instruction-cache size sensitivity of rule 2.2.

The paper notes splitting is "exclusively required if the cache memory
is not large enough, and it does not compromise the fault coverage".
This bench sweeps the I-cache size from 2 KiB to 16 KiB: smaller caches
force the splitter to cut the forwarding routine into more parts, but
the combined coverage of the parts stays identical and every part stays
deterministic under full 3-core contention.
"""

from repro.core import build_cache_wrapped, split_routine
from repro.cpu.core import CORE_MODEL_A, CORE_MODEL_B, CORE_MODEL_C
from repro.cpu.recording import ActivationLog
from repro.faults import module_coverage
from repro.mem.cache import CacheConfig
from repro.soc import Soc, SocConfig
from repro.stl import RoutineContext
from repro.stl.routines.forwarding import (
    forwarding_block_emitters,
    forwarding_setup_emitter,
)
from repro.utils.tables import format_table

CTX = RoutineContext.for_core(0, CORE_MODEL_A)
SIZES = (2 << 10, 4 << 10, 8 << 10, 16 << 10)


def _run_part(program, icache):
    """Run one wrapped part on core 0 under 3-core contention, on a SoC
    whose I-caches have the ``icache`` geometry the part was split for."""
    from repro.core import cache_wrapped_builder
    from repro.stl.routines import make_forwarding_routine

    noise_models = {1: CORE_MODEL_B, 2: CORE_MODEL_C}
    soc = Soc(SocConfig(icache=icache))
    soc.load(program)
    for core_id, model in noise_models.items():
        noise = cache_wrapped_builder(
            make_forwarding_routine(model, with_pcs=False),
            RoutineContext.for_core(core_id, model),
        )(0x0008_0000 + core_id * 0x8000)
        soc.load(noise)
        soc.cores[core_id].recording = False
        soc.start_core(core_id, noise.base_address)
    soc.start_core(0, program.base_address)
    soc.run(max_cycles=8_000_000)
    return soc.cores[0].log


def sweep_cache_sizes():
    results = []
    for size in SIZES:
        icache = CacheConfig(name="icache", size_bytes=size)
        blocks = forwarding_block_emitters(CORE_MODEL_A, patterns_per_path=4)
        parts = split_routine(
            "fwd_sweep", "FWD", blocks, CTX, icache,
            setup=forwarding_setup_emitter(CORE_MODEL_A, False),
        )
        combined = ActivationLog()
        max_part_bytes = 0
        for part in parts:
            program = build_cache_wrapped(part, 0x1000, CTX)
            max_part_bytes = max(max_part_bytes, program.size_bytes)
            log = _run_part(program, icache)
            combined.forwarding.extend(log.forwarding)
        coverage = module_coverage("FWD", combined, CORE_MODEL_A)
        results.append((size, len(parts), max_part_bytes, coverage))
    return results


def test_cache_size_sensitivity(benchmark, emit):
    results = benchmark.pedantic(sweep_cache_sizes, rounds=1, iterations=1)
    rows = [
        (
            f"{size >> 10} KiB",
            parts,
            largest,
            f"{coverage.coverage_percent:.2f}",
        )
        for size, parts, largest, coverage in results
    ]
    emit(
        format_table(
            ("I-cache", "parts after split", "largest part [B]",
             "combined FC%"),
            rows,
            title="Extension: rule 2.2 across instruction-cache sizes",
        )
    )
    coverages = [c.coverage_percent for _, _, _, c in results]
    # Splitting never costs coverage, whatever the cache size (part
    # seams may add a fraction of a percent of extra boundary patterns).
    assert max(coverages) - min(coverages) < 0.1
    assert min(coverages) >= coverages[-1] - 1e-9
    # Smaller caches need more parts; each part fits its cache.
    part_counts = [parts for _, parts, _, _ in results]
    assert part_counts[0] > part_counts[-1]
    for (size, _, largest, _) in results:
        assert largest <= size
