#!/usr/bin/env python3
"""Writes one trajectory point: the Fig. 4 rows plus the served-path medians.

Usage (scripts/ci.sh perf runs this after the Fig. 4 gate):

    python3 scripts/bench_trajectory.py --point <id> \\
        --fig4 <bench_fig4_runtime --benchmark_format=json output> \\
        --out BENCH_<id>.json

Each perfbench workload of BENCHMARK.json runs three times, 30 s each at
seeds 401-403, untraced, through perfbench/run.py. The run shape is fixed
so that every trajectory point is comparable with every other. The point
records the quartiles of every end-to-end metric the runs report, next to
the Fig. 4 rows in milliseconds (each row's median over the bench's
repetitions). A run that fails is recorded by seed and
fails the script after the file is written.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from check_perf import rows_ms

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = [401, 402, 403]
RUN_SECONDS = 30


def fig4_rows(path):
    """Each row's median over the bench's repetitions (its single run when
    it had none), in ms; read the way the Fig. 4 gate reads it."""
    with open(path) as fh:
        report = json.load(fh)
    return {name: round(ms, 4) for name, ms in rows_ms(report).items()}


def run_workload(workload, seeds, seconds):
    """Returns ({metric: [values]}, [failed seeds])."""
    values = {}
    failed = []
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            failed.append(seed)
            continue
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values, failed


def quartiles(vals):
    if len(vals) == 1:
        return {"q1": vals[0], "median": vals[0], "q3": vals[0], "runs": 1}
    q1, median, q3 = statistics.quantiles(vals, n=4)
    return {"q1": round(q1, 6), "median": round(median, 6),
            "q3": round(q3, 6), "runs": len(vals)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--point", required=True)
    parser.add_argument("--fig4", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    code = subprocess.run(["git", "describe", "--always", "--dirty"],
                          stdout=subprocess.PIPE, text=True, cwd=ROOT)
    point = {
        "point": args.point,
        "code": code.stdout.strip(),
        "machine": "%s, %d CPUs" % (platform.platform(), os.cpu_count() or 0),
        "fig4_real_time_ms": fig4_rows(args.fig4),
        "perfbench": {"run_seconds": RUN_SECONDS, "seeds": SEEDS,
                      "workloads": {}},
    }
    any_failed = False
    for workload in spec["workloads"]:
        name = workload["name"]
        print("perfbench %s, seeds %s" % (name, SEEDS), file=sys.stderr,
              flush=True)
        values, failed = run_workload(name, SEEDS, RUN_SECONDS)
        entry = {"end_to_end": {m: quartiles(v) for m, v in values.items()}}
        if failed:
            entry["failed_seeds"] = failed
            any_failed = True
        point["perfbench"]["workloads"][name] = entry
    with open(args.out, "w") as fh:
        json.dump(point, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote " + args.out, file=sys.stderr)
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
