#!/usr/bin/env python3
"""Rule 2.2 in action: splitting a routine that outgrows the I-cache.

The paper: "If the resulting test program is larger than the available
cache size, it must be split into two or more smaller self-test
procedures ... it does not compromise the fault coverage of the
original single-core test procedure."

This example builds an oversized forwarding test (every data pattern on
every path), validates it against a deliberately small 2 KiB
instruction cache, splits it, runs every part cache-wrapped, and shows
that the parts' combined coverage equals the unsplit routine's.
"""

from repro import CORE_MODEL_A, RoutineContext, module_coverage
from repro.core import build_cache_wrapped, split_routine, validate_cache_residency
from repro.cpu.recording import ActivationLog
from repro.mem.cache import CacheConfig
from repro.soc import Soc
from repro.stl.routines.forwarding import (
    forwarding_block_emitters,
    forwarding_setup_emitter,
    make_forwarding_routine,
)
from repro.utils.tables import format_table

SMALL_ICACHE = CacheConfig(name="icache", size_bytes=2 << 10)


def run_wrapped(program):
    soc = Soc()
    soc.load(program)
    soc.start_core(0, program.base_address)
    soc.run(max_cycles=4_000_000)
    return soc.cores[0].log


def main() -> None:
    ctx = RoutineContext.for_core(0, CORE_MODEL_A)
    routine = make_forwarding_routine(
        CORE_MODEL_A, with_pcs=False, patterns_per_path=4
    )
    whole = build_cache_wrapped(routine, 0x1000, ctx)
    report = validate_cache_residency(whole, SMALL_ICACHE)
    print(report.summary())
    assert not report.ok, "expected a rule-2.2 violation on the 2 KiB cache"

    blocks = forwarding_block_emitters(CORE_MODEL_A, patterns_per_path=4)
    parts = split_routine(
        "fwd_small",
        "FWD",
        blocks,
        ctx,
        SMALL_ICACHE,
        setup=forwarding_setup_emitter(CORE_MODEL_A, with_pcs=False),
    )
    rows = []
    combined = ActivationLog()
    for part in parts:
        program = build_cache_wrapped(part, 0x1000, ctx)
        part_report = validate_cache_residency(program, SMALL_ICACHE)
        log = run_wrapped(program)
        combined.forwarding.extend(log.forwarding)
        rows.append(
            (
                part.name,
                program.size_bytes,
                "OK" if part_report.ok else "TOO BIG",
                len(log.forwarded_path_set()),
            )
        )
    print()
    print(
        format_table(
            ("part", "wrapped bytes", "rule 2.2", "paths excited"),
            rows,
            title=f"Split into {len(parts)} cache-sized parts",
        )
    )
    whole_fc = module_coverage("FWD", run_wrapped(whole), CORE_MODEL_A)
    parts_fc = module_coverage("FWD", combined, CORE_MODEL_A)
    print(
        f"\nfault coverage unsplit: {whole_fc.coverage_percent:.2f}%   "
        f"combined over parts: {parts_fc.coverage_percent:.2f}%"
    )
    assert parts_fc.detected_faults >= whole_fc.detected_faults * 0.999
    print("Splitting preserved the routine's coverage, as the paper requires.")


if __name__ == "__main__":
    main()
