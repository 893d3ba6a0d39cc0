"""Campaign benchmark: end-to-end and per-layer metrics of the fault campaign.

Run from the repository root:

    python3 perfbench/run.py --workload matrix_sharded --seed 1 --seconds 45 --trace 0

BENCHMARK.json registers ``matrix_nocache_tdf`` and ``matrix_sharded``,
which between them exercise every layer.  ``matrix_cached`` runs as
well; it is the serial form of ``matrix_sharded`` and shares its pinned
digests.

``--trace 0`` reports the end-to-end metrics with tracing off:

* ``setup_s`` -- median of SETUP_SAMPLES cold set-ups, each in a fresh
  process (imports, fault universe, netlist compile, builders);
* ``run_s`` -- median wall-clock of the passes that fit in ``--seconds``
  (at least one; a pass runs the whole workload once), timed after an
  untimed warm-up pass;
* ``soc_cycles_per_s`` -- simulated SoC cycles of one pass over ``run_s``;
* ``peak_rss_mb`` -- peak RSS of this process plus its largest child.

The error rate (failed over attempted scenarios) is printed as well and
is carried by the result line's ``failed`` and ``attempted``.

``--trace 1`` makes the same untraced passes, then one traced pass with
a span around every call into a layer (see ``workloads.LayerTrace``),
and reports the per-layer metrics derived from its spans.  The spans go
to ``.perfbench/spans-<workload>.json``.

Every pass is checked against the per-scenario digests pinned in
``digests.json`` and against the paper's invariants.  The traced pass
must also reproduce the untraced outcome digest and cover at least 95 %
of its wall-clock with layer spans.  Any mismatch exits with status 1.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--pin`` recomputes the workload's pinned digests; use it only after a
change meant to alter simulated results.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import Tracer
from workloads import LAYER_SPANS, WORKLOADS, outcome_digest, record_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
DIGESTS = HERE / "digests.json"
WORKDIR = ROOT / ".perfbench"
#: Cold set-ups per run, each in a fresh process; setup_s is their median.
SETUP_SAMPLES = 9
MIN_SPAN_COVERAGE = 0.95


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def base_commit() -> str:
    """The checkout's HEAD commit, read from git metadata when present.

    Uncommitted changes are not seen: the tree measured may differ from it.
    """
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def setup_probe(name: str) -> float:
    """Cold set-up seconds of ``name`` measured in a fresh process."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--setup-only"],
        capture_output=True, text=True, timeout=170, check=True, cwd=ROOT,
    )
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def timed_passes(workload, state, plan, workdir, seconds):
    """Whole passes, back to back, while the next one fits in ``seconds``.

    A pass is expected to take as long as the slowest one so far; the
    first pass always runs.
    """
    passes = []
    start = time.perf_counter()
    while not passes or (
        time.perf_counter() - start + max(r.seconds for r in passes) <= seconds
    ):
        gc.collect()
        begin = time.perf_counter()
        result = workload.run_pass(state, plan, workdir)
        result.seconds = time.perf_counter() - begin
        passes.append(result)
    return passes


def check(workload, plan, records, pinned) -> tuple[set, list[str]]:
    """Scenarios of one pass that fail, and a message for every problem.

    A scenario fails when it produced no outcome, when its outcome digest
    is not the pinned one, or when a paper invariant names it.
    """
    failed, messages = set(), []
    missing = {workload.label(item) for item in plan} - set(records)
    if missing:
        failed |= missing
        messages.append(f"{len(missing)} of {len(plan)} produced no outcome")
    for label, record in sorted(records.items()):
        digest = record_digest(record)
        if digest != pinned.get(label):
            failed.add(label)
            messages.append(
                f"{label}: outcome digest {digest} is not the pinned {pinned.get(label)}"
            )
    for labels, message in workload.invariants(records):
        failed |= labels
        messages.append(message)
    return failed, messages


def dispatch_metrics(campaign, wall: float, workers: int) -> dict:
    names = (
        "dispatch.shard_s_max", "dispatch.shard_s_mean", "dispatch.imbalance",
        "dispatch.worker_idle_frac", "dispatch.empty_shards",
    )
    if campaign is None:
        return dict.fromkeys(names, 0)
    seconds = [timing.seconds for timing in campaign.shard_timings]
    mean = statistics.fmean(seconds)
    return dict(zip(names, (
        max(seconds),
        mean,
        max(seconds) / mean,
        1 - sum(seconds) / (workers * wall),
        campaign.num_shards - len(seconds),
    )))


def layer_metrics(tracer, traced, wall, run_s, setup, workload) -> dict:
    own = tracer.self_seconds()
    seconds = {name: own.get(name, 0.0) for name in LAYER_SPANS}
    counts = traced.counts
    hits, misses = counts["icache.hits"], counts["icache.misses"]
    evals_s = seconds["grade"] + seconds["grade.tdf"]
    return {
        "build.s": seconds["build"],
        "build.programs": counts["build.programs"],
        "simulate.s": seconds["simulate"],
        "simulate.cycles_per_s": ratio(counts["soc.cycles"], seconds["simulate"]),
        "simulate.instret": counts["simulate.instret"],
        "sim.cycles": counts["sim.cycles"],
        "sim.if_stalls": counts["sim.if_stalls"],
        "sim.mem_stalls": counts["sim.mem_stalls"],
        "sim.hazard_stalls": counts["sim.hazard_stalls"],
        "sim.ipc": ratio(counts["simulate.instret"], counts["sim.cycles"]),
        "mem.bus_wait_cycles": counts["mem.bus_wait_cycles"],
        "mem.bus_transactions": counts["mem.bus_transactions"],
        "mem.icache_hit_rate": ratio(hits, hits + misses),
        "record.records": counts["record.records"],
        "record.observable_frac": ratio(
            counts["record.observable"], counts["record.records"]
        ),
        "extract.s": seconds["extract"],
        "extract.ordered_s": seconds["extract.ordered"],
        "extract.patterns": counts["extract.patterns"],
        "extract.dedup_ratio": ratio(counts["extract.patterns"], counts["extract.inputs"]),
        "grade.s": seconds["grade"],
        "grade.tdf_s": seconds["grade.tdf"],
        "grade.faults": counts["grade.faults"],
        "grade.detected": counts["grade.detected"],
        "grade.gate_fault_evals_per_s": ratio(counts["grade.gate_fault_evals"], evals_s),
        "checkpoint.s": seconds["checkpoint"],
        "checkpoint.writes": counts["checkpoint.writes"],
        "checkpoint.bytes": counts["checkpoint.bytes"],
        **dispatch_metrics(traced.campaign, seconds["dispatch"], workload.workers),
        "setup.modules_s": setup.modules_s,
        "setup.compile_s": setup.compile_s,
        "other.s": wall - sum(seconds.values()),
        "trace.overhead_frac": wall / run_s - 1,
    }


def measure(args, workload, setup, workdir, nproc) -> int:
    declared = json.loads(BENCHMARK.read_text())
    pinned = json.loads(DIGESTS.read_text()).get(workload.digest_key, {})
    state = setup.state
    plan = workload.plan(state, args.seed)
    workload.run_pass(state, plan, workdir)
    passes = timed_passes(workload, state, plan, workdir, args.seconds)
    failed, messages = 0, []
    for result in passes:
        labels, problems = check(workload, plan, result.records, pinned)
        failed += len(labels)
        messages += problems
    attempted = len(plan) * len(passes)
    run_s = statistics.median(result.seconds for result in passes)
    context = {
        "workload": workload.name,
        "seed": args.seed,
        "workers": workload.workers,
        "nproc": nproc,
        "oversubscribed": workload.workers > nproc,
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        # HEAD of the checkout; the measured tree may carry changes on top.
        "base_commit": base_commit(),
        "pass_s": [round(result.seconds, 4) for result in passes],
        "outcome_digest": outcome_digest(passes[0].records),
    }
    if args.trace:
        tracer = Tracer()
        gc.collect()
        start = time.perf_counter()
        traced = workload.traced_pass(state, plan, workdir, tracer)
        wall = time.perf_counter() - start
        attempted += len(plan)
        labels, problems = check(workload, plan, traced.records, pinned)
        failed += len(labels)
        messages += problems
        if outcome_digest(traced.records) != context["outcome_digest"]:
            messages.append("traced outcome digest differs from the untraced one")
        metrics = layer_metrics(tracer, traced, wall, run_s, setup, workload)
        covered = 1 - metrics["other.s"] / wall
        context["span_coverage"] = round(covered, 4)
        if covered < MIN_SPAN_COVERAGE:
            messages.append(f"layer spans cover only {covered:.1%} of traced wall-clock")
        tracer.write(WORKDIR / f"spans-{workload.name}.json", context)
        declared_metrics = declared["per_layer"]
    else:
        rss = peak_rss_mb()
        samples = [setup.seconds]
        samples += [setup_probe(workload.name) for _ in range(SETUP_SAMPLES - 1)]
        context["setup_samples_s"] = [round(sample, 4) for sample in samples]
        metrics = {
            "setup_s": statistics.median(samples),
            "run_s": run_s,
            "soc_cycles_per_s": passes[0].soc_cycles / run_s,
            "peak_rss_mb": rss,
        }
        declared_metrics = declared["end_to_end"]
    return report(args, context, declared_metrics, metrics, messages, failed, attempted)


def report(args, context, declared_metrics, metrics, messages, failed, attempted) -> int:
    units = {metric["name"]: metric["unit"] for metric in declared_metrics}
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SystemExit(f"perfbench: declared metrics not measured: {missing}")
    for message in messages:
        print(f"FAIL {message}", file=sys.stderr)
    print(
        f"{context['workload']} seed {args.seed}: {len(context['pass_s'])} timed "
        f"pass(es), {attempted} scenarios attempted, {failed} failed"
    )
    print(f"  {'error_rate':32s} {failed / attempted:>16.6g} ratio")
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:>16.6g} {unit}")
    print("context " + json.dumps(context, sort_keys=True))
    print(json.dumps({
        "correct": not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 1 if messages else 0


def pin(workload, setup, workdir) -> int:
    result = workload.run_pass(setup.state, workload.pin_plan(setup.state), workdir)
    problems = [message for _, message in workload.invariants(result.records)]
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    if problems:
        return 1
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    digests[workload.digest_key] = {
        label: record_digest(record) for label, record in sorted(result.records.items())
    }
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(result.records)} outcome digests under {workload.digest_key}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no source tree at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    if workload.workers > nproc:
        print(
            f"perfbench: {workload.name} needs {workload.workers} workers but the "
            f"host has {nproc} CPUs; refusing to oversubscribe",
            file=sys.stderr,
        )
        return 2
    setup = workload.setup()
    if args.setup_only:
        print(json.dumps({"setup_s": setup.seconds}))
        return 0
    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORKDIR, prefix="run-"))
    try:
        if args.pin:
            return pin(workload, setup, workdir)
        return measure(args, workload, setup, workdir, nproc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
