"""Hot-path wall-clock: compiled kernel vs interpreted reference.

Runs the full Section IV-C scenario matrix once, extracts every
(netlist, pattern set, fault list) grading item the campaign would
fault-simulate, and times the serial grading sweep under both engines
— the exact per-fault hot path, with scenario simulation (engine-
independent) excluded.  Records wall-clock, the speedup ratio and a
gate-fault-evaluations/second throughput proxy in
``BENCH_hotpaths.json``.  Campaign wall-clock and pool scaling are
measured by ``perfbench/`` (``matrix_cached`` against
``matrix_sharded``).

The speedup IS asserted: the compiled kernel exists to make the hot
path at least 3x faster, and equivalence of the detected counts is
checked in the same sweep — a fast-but-wrong kernel fails here before
it fails the differential suite.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.core.determinism import default_scenarios, run_scenario
from repro.faults.campaign import grading_items
from repro.faults.compiled import compiled_for
from repro.faults.ppsfp import fault_simulate
from repro.faults.workload import DEFAULT_CAMPAIGN_MODELS, standard_provider
from repro.utils.tables import format_table

REPS = 3
MIN_SPEEDUP = 3.0
RESULT_PATH = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_hotpaths.json"
)


def matrix_items():
    """Every stuck-at (netlist, patterns, faults) item of the scenario
    matrix that the campaign's FWD/HDCU/ICU grading simulates."""
    builders = standard_provider()()
    items = []
    for scenario in default_scenarios():
        result = run_scenario(builders, scenario)
        for core_id, model in DEFAULT_CAMPAIGN_MODELS.items():
            if core_id not in result.per_core:
                continue
            log = result.per_core[core_id].log
            items += [
                item
                for module in ("FWD", "HDCU", "ICU")
                for item in grading_items(module, log, model)
                if item[1] is not None
            ]
    return items


def sweep(items, engine):
    """Grade every item serially; wall-clock + total detected."""
    start = time.perf_counter()
    detected = sum(
        fault_simulate(netlist, patterns, faults, engine=engine).detected_faults
        for netlist, patterns, faults in items
    )
    return time.perf_counter() - start, detected


def test_compiled_kernel_speedup(emit):
    cpus = os.cpu_count() or 1

    setup_start = time.perf_counter()
    items = matrix_items()
    setup_seconds = time.perf_counter() - setup_start
    # The work volume behind the throughput proxy: one gate evaluation
    # per gate per fault is what the interpreted engine's cost model
    # bounds, so gates x faults / second compares engines fairly.
    gate_fault_evals = sum(
        len(netlist.gates) * len(faults) for netlist, _, faults in items
    )

    compile_start = time.perf_counter()
    for netlist, _, _ in items:
        compiled_for(netlist)  # one-time lowering, cached per netlist
    compile_seconds = time.perf_counter() - compile_start

    times = {}
    detected = {}
    for engine in ("interpreted", "compiled"):
        best = float("inf")
        for _ in range(REPS):
            seconds, count = sweep(items, engine)
            best = min(best, seconds)
            detected[engine] = count
        times[engine] = best
    # Fast but wrong is just wrong.
    assert detected["compiled"] == detected["interpreted"]
    speedup = times["interpreted"] / times["compiled"]

    payload = {
        "benchmark": "hotpaths",
        "cpu_count": cpus,
        "grading_items": len(items),
        "gate_fault_evals": gate_fault_evals,
        "setup_seconds": round(setup_seconds, 3),
        "compile_seconds": round(compile_seconds, 3),
        "serial": {
            engine: {
                "seconds": round(seconds, 4),
                "evals_per_second": int(gate_fault_evals / seconds),
                "detected_faults": detected[engine],
            }
            for engine, seconds in times.items()
        },
        "speedup": round(speedup, 3),
        "min_speedup": MIN_SPEEDUP,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    emit(
        format_table(
            ("engine", "seconds", "evals/s", "speedup"),
            [
                (
                    engine,
                    f"{seconds:.3f}",
                    f"{gate_fault_evals / seconds:,.0f}",
                    f"{times['interpreted'] / seconds:.2f}x",
                )
                for engine, seconds in times.items()
            ],
            title=(
                f"Serial grading of {len(items)} items "
                f"({gate_fault_evals:,} gate-fault evals, best of {REPS}) "
                f"-> {RESULT_PATH.name}"
            ),
        )
    )
    assert speedup >= MIN_SPEEDUP, (
        f"compiled kernel is only {speedup:.2f}x faster than interpreted "
        f"(required: {MIN_SPEEDUP}x); see {RESULT_PATH}"
    )
