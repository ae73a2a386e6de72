#!/usr/bin/env python3
"""Builds and runs the qmatchd served-path benchmark.

One run, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds qmatchd and qmbench (perfbench/CMakeLists.txt) into
.bench_build/perfbench, runs one workload and passes qmbench's output
through. Its last stdout line is the result JSON: {"correct", "attempted",
"failed", "metrics"}; --trace 0 carries the end-to-end metrics and
--trace 1 the per-layer ones (plus a self-time table above it and a Chrome
trace_event span log in .bench_build/perfbench/trace_<workload>.json).

Steadiness mode repeats one workload with seeds seed..seed+N-1 and prints
each metric's median, quartiles and spread next to its BENCHMARK.json
bound, flagging every metric whose spread exceeds its bound:

    python3 perfbench/run.py --workload warm_mixed --steady 10 [--seed 1]
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
# Compilers and qmbench keep their temporary files inside the checkout.
ENV = dict(os.environ, TMPDIR=os.path.join(ROOT, ".bench_build", "tmp"))


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures once and builds the two targets; False on any failure."""
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "qmbench", "qmatchd",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=ENV).returncode:
            log("perfbench: build step failed: " + " ".join(step))
            return False
    return True


def run_once(workload, seed, seconds, trace, echo=True):
    """Runs qmbench once; returns (exit code, stdout text)."""
    work_dir = os.path.join(ROOT, ".bench_build", "run",
                            "%s-%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    command = [
        os.path.join(BUILD, "qmbench"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--qmatchd", os.path.join(BUILD, "qmatch", "examples", "qmatchd"),
        "--data", os.path.join(ROOT, "data"), "--work-dir", work_dir,
        "--trace-out", os.path.join(BUILD, "trace_%s.json" % workload),
    ]
    # Own process group, so a timeout also takes down the daemon it spawned.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            env=ENV, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        log("perfbench: run timed out after %d s" % RUN_TIMEOUT_S)
        shutil.rmtree(work_dir, ignore_errors=True)
        return 1, ""
    shutil.rmtree(work_dir, ignore_errors=True)
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    return proc.returncode, out


def steady(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[section]}
    values = {name: [] for name in bounds}
    for k in range(args.steady):
        seed = args.seed + k
        code, out = run_once(args.workload, seed, args.seconds, args.trace,
                             echo=False)
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            log("perfbench: seed %d failed (exit %d)" % (seed, code))
            return 1
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        log("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, m["value"]) for n, m in result["metrics"].items())))
    print("%s, %d runs, seeds %d..%d" % (args.workload, args.steady, args.seed,
                                        args.seed + args.steady - 1))
    print("%-26s %12s %12s %12s %8s %8s" % ("metric", "q1", "median", "q3",
                                            "spread", "bound"))
    flagged = []
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound:
            flag = "  EXCEEDS BOUND"
            flagged.append(name)
        elif bound is not None and spread > bound / 3:
            flag = "  above bound/3"
        print("%-26s %12.6g %12.6g %12.6g %8.4f %8s%s" % (
            name, q1, median, q3, spread,
            "-" if bound is None else "%.3f" % bound, flag))
    return 1 if flagged else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0,
                        help="repeat N times with consecutive seeds")
    args = parser.parse_args()
    if not build():
        return 1
    if args.steady:
        return steady(args)
    code, _ = run_once(args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
