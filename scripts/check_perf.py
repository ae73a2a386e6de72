#!/usr/bin/env python3
"""Perf regression gate: google-benchmark JSON on stdin vs checked-in baselines.

Usage:
  ./build/bench/bench_fig4_runtime --benchmark_format=json \
      --benchmark_repetitions=5 \
      | python3 scripts/check_perf.py bench/baselines.json
  ... | python3 scripts/check_perf.py --update bench/baselines.json

Each row is read from its `median` aggregate when the run had
repetitions (`--benchmark_repetitions=N`; `ci.sh perf` runs 5), else from
its single run. Fails (exit 1) when any row's real_time exceeds its
baseline by more than the relative threshold (default 15%) plus a small
absolute slack that keeps sub-millisecond rows from tripping on scheduler
noise. Benchmarks
missing a baseline fail too — a new row must be recorded, not silently
ungated. Speedups never fail; rerun with --update to ratchet them in.

--update merges the measured rows into the existing baseline file (it
never drops rows it did not measure), so several bench binaries can share
one baselines.json: each bench's run updates only its own rows.
"""

import argparse
import json
import sys

REL_THRESHOLD = 0.15   # fail above baseline * (1 + REL_THRESHOLD) ...
ABS_SLACK_MS = 0.10    # ... + ABS_SLACK_MS (noise floor for tiny rows)

UNIT_TO_MS = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}


def rows_ms(report):
    """{row name: real_time in ms}: the median aggregate of a repeated row,
    else the row's single run."""
    single = {}
    median = {}
    for bench in report.get("benchmarks", []):
        scale = UNIT_TO_MS.get(bench.get("time_unit", "ns"))
        if scale is None:
            raise SystemExit(f"unknown time_unit in {bench['name']}")
        ms = bench["real_time"] * scale
        if bench.get("run_type") != "aggregate":
            single[bench.get("run_name", bench["name"])] = ms
        elif bench.get("aggregate_name") == "median":
            median[bench["run_name"]] = ms
    return {**single, **median}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baselines", help="path to baselines.json")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline file from this run")
    parser.add_argument("--threshold", type=float, default=REL_THRESHOLD,
                        help="relative regression threshold (default 0.15)")
    args = parser.parse_args()

    measured = rows_ms(json.load(sys.stdin))
    if not measured:
        raise SystemExit("no benchmark rows on stdin")

    if args.update:
        try:
            with open(args.baselines) as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            doc = {"time_unit": "ms"}
        doc.setdefault("baselines", {}).update(
            {name: round(ms, 4 if ms < 1 else 2)
             for name, ms in measured.items()})
        with open(args.baselines, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"updated {args.baselines} with {len(measured)} rows "
              f"({len(doc['baselines'])} total)")
        return 0

    with open(args.baselines) as fh:
        baselines = json.load(fh)["baselines"]

    failed = False
    for name, ms in sorted(measured.items()):
        base = baselines.get(name)
        if base is None:
            print(f"FAIL {name}: {ms:.2f} ms has no baseline "
                  f"(add it with --update)")
            failed = True
            continue
        limit = base * (1.0 + args.threshold) + ABS_SLACK_MS
        delta = (ms - base) / base * 100.0 if base else 0.0
        verdict = "ok" if ms <= limit else "FAIL"
        print(f"{verdict:4} {name}: {ms:.2f} ms vs baseline {base:.2f} ms "
              f"({delta:+.1f}%, limit {limit:.2f} ms)")
        if ms > limit:
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
