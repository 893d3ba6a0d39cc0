"""Command-line interface: ``python -m repro <experiment>``.

Runs one (or all) of the paper's experiments and prints the rendered
table next to the paper's reference numbers.  For programmatic access
use :mod:`repro.analysis` directly.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.analysis import (
    fig1_pipeline_traces,
    fig2_structure_audit,
    table1_stalls,
    table2_forwarding,
    table3_icu_hdcu,
    table4_tcm_vs_cache,
)

#: Exit status of ``faultsim`` when a supervised campaign completes
#: partially (quarantined shards under ``--allow-partial``) — distinct
#: from 1 (failed scenarios) so scripts can tell "coverage is a lower
#: bound" from "the campaign found failures".
EXIT_PARTIAL_CAMPAIGN = 3

EXPERIMENTS = {
    "table1": ("Table I  - multi-core STL stalls", table1_stalls),
    "table2": ("Table II - forwarding FC, no PCs", table2_forwarding),
    "table3": ("Table III - ICU/HDCU FC + verdicts", table3_icu_hdcu),
    "table4": ("Table IV - TCM vs cache strategy", table4_tcm_vs_cache),
    "fig1": ("Fig. 1   - forwarding pipeline traces", fig1_pipeline_traces),
    "fig2": ("Fig. 2   - wrapper structural audit", fig2_structure_audit),
}


def _run_trace(argv: list[str]) -> int:
    """``python -m repro trace <scenario>`` — run a canned scenario with
    telemetry attached and export the Chrome trace + metrics report.

    Lives outside ``EXPERIMENTS`` on purpose: those regenerate paper
    tables/figures, while ``trace`` produces artifacts (a
    Perfetto-loadable trace, a phase-split metrics JSON) and an audit
    verdict for one scenario run.
    """
    # Function-level import: the telemetry scenarios build SoCs and
    # programs, none of which the table/figure experiments need.
    from repro.telemetry.scenarios import TRACE_SCENARIOS, run_trace_scenario

    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description=(
            "Run one canned telemetry scenario, print its phase-split "
            "metrics and determinism-audit verdict, and export a Chrome "
            "trace-event JSON loadable in Perfetto (ui.perfetto.dev)."
        ),
    )
    parser.add_argument(
        "scenario",
        choices=sorted(TRACE_SCENARIOS),
        help="; ".join(
            f"{name}: {desc}" for name, (desc, _) in sorted(TRACE_SCENARIOS.items())
        ),
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        help="Chrome trace-event JSON path (default: trace_<scenario>.json)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        help="metrics JSON path (default: metrics_<scenario>.json)",
    )
    parser.add_argument(
        "--small",
        action="store_true",
        help="tiny routine bodies (fast smoke runs, e.g. in CI)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero unless the audit verdict matches the scenario's",
    )
    args = parser.parse_args(argv)
    start = time.time()
    run = run_trace_scenario(args.scenario, small=args.small)
    print(f"== trace scenario: {run.name} ({run.cycles:,} cycles) ==")
    print(f"   {run.narrative}\n")
    print(run.session.metrics.render())
    print()
    print(run.session.auditor.render())
    if run.report is not None:
        report = run.report
        print()
        print(
            f"supervisor: all_passed={report.all_passed} "
            f"recovered={report.recovered_names} "
            f"injections={len(report.injections)} "
            f"audit_attached={report.audit is not None}"
        )
    trace_path = args.trace_out or f"trace_{run.name}.json"
    metrics_path = args.metrics_out or f"metrics_{run.name}.json"
    events = run.session.export_chrome_trace(trace_path)
    run.session.metrics.snapshot().save(metrics_path)
    print(
        f"\nwrote {trace_path} ({len(events)} trace events; load in "
        f"ui.perfetto.dev) and {metrics_path} "
        f"({time.time() - start:.1f}s)"
    )
    if args.strict and not run.audit_as_expected:
        expected = "PASS" if run.expect_audit_pass else "FAIL"
        print(f"audit verdict does not match the scenario (expected {expected})")
        return 1
    return 0


def _run_faultsim(argv: list[str]) -> int:
    """``python -m repro faultsim`` — the parallel sharded coverage
    campaign over the paper's scenario matrix.

    Fault-grades every scenario run against the per-core fault lists
    like the Table II/III experiments, one scenario per shard over a
    process pool (``--workers``), recording every outcome in one
    checkpoint file, so the full campaign runs at host speed and a
    killed run resumes where it left off.  ``--workers 1`` runs the
    shards in this process unless the run is supervised
    (``--max-retries``/``--shard-timeout``/``--allow-partial``), which
    always uses a pool; every worker count produces bit-identical
    coverage (the differential test suite's invariant).
    """
    # Function-level imports: the table experiments don't need any of
    # the campaign machinery (and vice versa).
    import json as json_module
    import tempfile

    from repro.core.determinism import default_scenarios
    from repro.faults.campaign import COVERAGE_GRADERS, coverage_ranges
    from repro.faults.orchestrator import (
        RetryPolicy,
        resolve_workers,
        run_parallel_checkpointed_campaign,
    )
    from repro.faults.workload import (
        DEFAULT_CAMPAIGN_MODELS,
        small_provider,
        standard_provider,
    )
    from repro.utils.tables import format_table

    parser = argparse.ArgumentParser(
        prog="python -m repro faultsim",
        description=(
            "Multi-process fault-simulation campaign: run the Section "
            "IV-C scenario matrix, one scenario per shard, fault-grade "
            "every run, and report per-module coverage ranges plus "
            "per-shard wall-clock."
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "process-pool size (1, the default, runs the shards in this "
            "process unless the run is supervised); "
            "requests beyond the host's CPU count are clamped"
        ),
    )
    parser.add_argument(
        "--modules",
        default="FWD,HDCU,ICU",
        help=(
            "comma-separated fault lists to grade; choices: "
            + ",".join(sorted(COVERAGE_GRADERS))
        ),
    )
    parser.add_argument(
        "--small",
        action="store_true",
        help="smoke-sized routine bodies (fast CI runs)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help=(
            "campaign checkpoint directory (resumable); default: a "
            "throwaway temp directory"
        ),
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        help=(
            "run under the supervised orchestrator: retry each failed "
            "shard up to N times (deterministic backoff) before "
            "quarantining it"
        ),
    )
    parser.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        help=(
            "supervised-orchestrator shard deadline in seconds from "
            "dispatch; a shard past it is killed and re-dispatched "
            "(implies the orchestrator; default retry budget applies "
            "unless --max-retries is given)"
        ),
    )
    parser.add_argument(
        "--allow-partial",
        action="store_true",
        help=(
            "accept a partial campaign when shards end quarantined: "
            "print the quarantine roster, report coverage over the "
            "completed scenarios only, and exit with status "
            f"{EXIT_PARTIAL_CAMPAIGN} instead of failing"
        ),
    )
    parser.add_argument(
        "--json",
        dest="json_out",
        default=None,
        help="write a machine-readable campaign summary as JSON",
    )
    args = parser.parse_args(argv)
    for flag, value, least in (
        ("--workers", args.workers, 1),
        ("--max-retries", args.max_retries, 0),
    ):
        if value is not None and value < least:
            parser.error(f"{flag} must be >= {least}, got {value}")
    if args.shard_timeout is not None and args.shard_timeout <= 0:
        parser.error(f"--shard-timeout must be > 0, got {args.shard_timeout}")
    modules = tuple(m.strip() for m in args.modules.split(",") if m.strip())
    unknown = [m for m in modules if m not in COVERAGE_GRADERS]
    if unknown:
        parser.error(f"unknown modules {unknown}; choices: {sorted(COVERAGE_GRADERS)}")
    provider = small_provider() if args.small else standard_provider()
    scenarios = default_scenarios()
    workers = resolve_workers(args.workers)
    if workers != args.workers:
        print(
            f"note: clamped --workers {args.workers} to {workers} "
            f"(host CPU count)"
        )
    supervised = (
        args.max_retries is not None
        or args.shard_timeout is not None
        or args.allow_partial
    )
    policy = None
    if supervised:
        policy = RetryPolicy(
            max_retries=2 if args.max_retries is None else args.max_retries,
            shard_timeout=args.shard_timeout,
            allow_partial=args.allow_partial,
        )
    start = time.time()
    with tempfile.TemporaryDirectory() as tmp:
        result = run_parallel_checkpointed_campaign(
            provider,
            scenarios,
            DEFAULT_CAMPAIGN_MODELS,
            args.checkpoint_dir or tmp,
            modules=modules,
            workers=workers,
            policy=policy,
        )
    elapsed = time.time() - start
    report = result.report
    quarantined_shards = list(result.quarantined_shards)
    quarantined_labels = list(result.quarantined_labels)
    failed = sorted(
        label for label, o in result.outcomes.items() if o.failed
    )

    # Coverage ranges per (module, core) across the scenario matrix —
    # the Table II/III shape, computed from the scenario outcomes.
    rows = []
    summary = []
    ranges = coverage_ranges(result.outcomes.values())
    for (module, core_id), spread in ranges.items():
        rows.append(
            (
                module,
                str(core_id),
                spread.core_model,
                f"{spread.minimum_percent:.2f}",
                f"{spread.maximum_percent:.2f}",
                "yes" if spread.stable else "NO",
            )
        )
        summary.append(
            {
                "module": module,
                "core_id": core_id,
                "core_model": spread.core_model,
                "min_percent": spread.minimum_percent,
                "max_percent": spread.maximum_percent,
                "stable": spread.stable,
            }
        )
    print(
        format_table(
            ("module", "core", "model", "min FC%", "max FC%", "stable"),
            rows,
            title=(
                f"Coverage ranges over {len(result.outcomes)} scenarios "
                f"({workers} workers, {result.num_shards} shards)"
            ),
        )
    )
    if result.shard_timings:
        print()
        print(
            format_table(
                ("shard", "scenario", "seconds"),
                [
                    (str(t.shard), t.label, f"{t.seconds:.2f}")
                    for t in result.shard_timings
                ],
                title="Executed shards (resume skips completed ones)",
            )
        )
    if failed:
        print(f"\nfailed scenarios: {', '.join(failed)}")
    if supervised:
        retried = report.retried_shards
        print(
            f"\norchestrator: {len(report.attempts)} shard attempt(s), "
            f"{len(retried)} shard(s) retried, "
            f"{report.pool_rebuilds} pool rebuild(s), "
            f"{report.stragglers} straggler(s)"
            + (" [degraded to serial]" if report.degraded_serial else "")
        )
    if quarantined_shards:
        print(
            f"quarantined shards: {quarantined_shards} covering "
            f"scenario(s): {', '.join(quarantined_labels)}"
        )
        print(
            "coverage below is a LOWER BOUND over the completed "
            "scenarios only"
        )
    print(
        f"\n{len(result.outcomes)} scenarios, {len(result.scheduled)} shard(s) "
        f"executed in {elapsed:.1f}s wall-clock"
    )
    if args.json_out:
        payload = {
            "workers": workers,
            "num_shards": result.num_shards,
            "scenarios": len(result.outcomes),
            "modules": list(modules),
            "elapsed_seconds": elapsed,
            "failed": failed,
            "coverage_ranges": summary,
            "shards": [
                {"index": t.shard, "label": t.label, "seconds": t.seconds}
                for t in result.shard_timings
            ],
        }
        if supervised:
            payload["orchestration"] = report.to_dict()
            payload["quarantined_shards"] = quarantined_shards
            payload["quarantined_scenarios"] = quarantined_labels
        with open(args.json_out, "w") as handle:
            json_module.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json_out}")
    if quarantined_shards:
        return EXIT_PARTIAL_CAMPAIGN
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    # The trace/faultsim subcommands take their own flags, so dispatch
    # them before the experiment parser (whose choices are the paper's
    # tables).
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "trace":
        return _run_trace(argv[1:])
    if argv and argv[0] == "faultsim":
        return _run_faultsim(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduce the evaluation of 'Deterministic Cache-based "
            "Execution of On-line Self-Test Routines in Multi-core "
            "Automotive System-on-Chips' (DATE 2020)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all", "report"],
        help=(
            "which table/figure to regenerate; 'all' runs everything, "
            "'report' additionally writes a Markdown report"
        ),
    )
    parser.add_argument(
        "--output",
        default="REPORT.md",
        help="report file path (only with the 'report' subcommand)",
    )
    args = parser.parse_args(argv)
    if args.experiment == "report":
        return _write_report(args.output)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        title, runner = EXPERIMENTS[name]
        print(f"== {title} ==")
        start = time.time()
        result = runner()
        print(result.render())
        print(f"({time.time() - start:.1f}s)\n")
    return 0


def _write_report(path: str) -> int:
    """Run every experiment and write a self-contained Markdown report."""
    sections = []
    for name in sorted(EXPERIMENTS):
        title, runner = EXPERIMENTS[name]
        print(f"running {name} ...", flush=True)
        start = time.time()
        rendered = runner().render()
        sections.append(
            f"## {title}\n\n```\n{rendered}\n```\n\n"
            f"_regenerated in {time.time() - start:.1f}s_\n"
        )
    with open(path, "w") as handle:
        handle.write(
            "# Reproduction report — Deterministic Cache-based Execution "
            "of On-line Self-Test Routines (DATE 2020)\n\n"
            "Generated by `python -m repro report`; every value is "
            "deterministic and re-running reproduces it bit-for-bit.\n\n"
            + "\n".join(sections)
        )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
