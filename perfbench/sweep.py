"""Run the benchmark over several seeds and summarise its end-to-end metrics.

Run from the repository root:

    python3 perfbench/sweep.py [--seeds 10] [--first-seed 1] [--workload W ...] [--record]

For every workload and end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(Q3 - Q1) / median next to the metric's bound in BENCHMARK.json.
``--record`` appends the summary, with the host, the HEAD commit and
whether the working tree differed from it, to
``perfbench/results/trajectory.jsonl``: one line per sweep, the
benchmark's history.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

from run import BENCHMARK, HERE, ROOT, base_commit

TRAJECTORY = HERE / "results" / "trajectory.jsonl"


def run_once(spec: dict, workload: str, seed: int) -> dict:
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode or not result["correct"]:
        sys.exit(f"{workload} seed {seed} failed:\n{done.stderr}")
    return result


def tree_modified() -> bool | None:
    """Whether the working tree differs from HEAD (None without git)."""
    try:
        done = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return bool(done.stdout.strip())


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median, "values": values,
    }


def main() -> int:
    spec = json.loads(BENCHMARK.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    summary = {}
    for workload in args.workload or names:
        runs = [run_once(spec, workload, seed) for seed in seeds]
        summary[workload] = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            stats = summarise([run["metrics"][name]["value"] for run in runs])
            stats["unit"] = metric["unit"]
            summary[workload][name] = stats
            print(
                f"{workload:20s} {name:18s} median {stats['median']:12.6g} "
                f"q1 {stats['q1']:12.6g} q3 {stats['q3']:12.6g} "
                f"spread {stats['spread']:.4f} (bound {metric['bound']})",
                flush=True,
            )
    if args.record:
        TRAJECTORY.parent.mkdir(exist_ok=True)
        entry = {
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
                timespec="seconds"
            ),
            "base_commit": base_commit(),
            "tree_modified": tree_modified(),
            "host": {
                "nproc": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "machine": platform.machine(),
            },
            "run_seconds": spec["run_seconds"],
            "seeds": seeds,
            "workloads": summary,
        }
        with open(TRAJECTORY, "a") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
