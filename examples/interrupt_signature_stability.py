#!/usr/bin/env python3
"""The Table III story: an unstable signature means the test self-fails.

The imprecise-interrupt routine reads the ICU's imprecision counter into
its signature.  Because recognition happens a *variable* number of
retired instructions after the trapping instruction, the signature is a
function of the fetch timing:

* single-core, no caches — stable signature (the reference);
* multi-core, no caches  — the signature depends on bus contention, so
  the self-check against the golden value fails in every configuration;
* multi-core, cache-based — stable again, and the coverage is higher
  than the single-core run because the execution loop excites the
  recognition logic without flash-latency gaps.
"""

from repro import (
    CORE_MODEL_A,
    CORE_MODEL_B,
    CORE_MODEL_C,
    RoutineContext,
    cache_wrapped_builder,
    default_scenarios,
    finalise_with_expected,
    make_interrupt_routine,
    module_coverage,
    run_scenario,
    single_core_scenarios,
)
from repro.soc import CodeAlignment, CodePosition, placement_address
from repro.stl.conventions import RESULT_FAIL, RESULT_PASS
from repro.utils.tables import format_table

MODELS = {0: CORE_MODEL_A, 1: CORE_MODEL_B, 2: CORE_MODEL_C}


def main() -> None:
    contexts = {i: RoutineContext.for_core(i, m) for i, m in MODELS.items()}
    plain_builders = {}
    wrapped_builders = {}
    for core_id, model in MODELS.items():
        routine = make_interrupt_routine(model)
        ctx = contexts[core_id]
        base = placement_address(CodePosition.LOW, CodeAlignment.QWORD, core_id)

        def build_plain(expected, routine=routine, ctx=ctx, base=base):
            return routine.build_single_core(base, ctx, expected)

        _, plain_expected = finalise_with_expected(build_plain, core_id)
        plain_builders[core_id] = (
            lambda addr, routine=routine, ctx=ctx, e=plain_expected:
            routine.build_single_core(addr, ctx, e)
        )

        def build_wrapped(expected, routine=routine, ctx=ctx, base=base):
            return cache_wrapped_builder(routine, ctx, expected)(base)

        _, wrapped_expected = finalise_with_expected(build_wrapped, core_id)
        wrapped_builders[core_id] = cache_wrapped_builder(
            routine, ctx, wrapped_expected
        )

    scenarios = default_scenarios()[::2]
    rows = []
    for core_id, model in MODELS.items():
        single = run_scenario(plain_builders, single_core_scenarios(core_id)[0])
        single_fc = module_coverage("ICU", single.per_core[core_id].log, model)
        multi_plain = [run_scenario(plain_builders, s) for s in scenarios]
        verdicts = [
            r.per_core[core_id].mailbox
            for r in multi_plain
            if core_id in r.per_core
        ]
        fails = sum(1 for v in verdicts if v == RESULT_FAIL)
        multi_wrapped = [run_scenario(wrapped_builders, s) for s in scenarios]
        wrapped_sigs = {
            r.per_core[core_id].signature
            for r in multi_wrapped
            if core_id in r.per_core
        }
        wrapped_fc = max(
            module_coverage("ICU", r.per_core[core_id].log, model).coverage_percent
            for r in multi_wrapped
            if core_id in r.per_core
        )
        wrapped_pass = all(
            r.per_core[core_id].mailbox == RESULT_PASS
            for r in multi_wrapped
            if core_id in r.per_core
        )
        rows.append(
            (
                model.name,
                f"{single_fc.coverage_percent:.2f}",
                f"{fails}/{len(verdicts)}",
                f"{wrapped_fc:.2f}",
                f"{'PASS' if wrapped_pass else 'FAIL'}"
                f" ({len(wrapped_sigs)} sig)",
            )
        )
    print(
        format_table(
            ("core", "ICU FC% single/no-cache", "multi/no-cache FAILs",
             "ICU FC% multi/cached", "multi/cached verdict"),
            rows,
            title="Imprecise-interrupt test across deployment strategies",
        )
    )
    print(
        "\nCore C's one-hot status mapping shows the ~+6% ICU coverage the"
        "\npaper attributes to its ICU implementation (Section IV-D)."
    )


if __name__ == "__main__":
    main()
