#!/usr/bin/env python3
"""Perf-regression guard for the committed benchmark records.

Compares a fresh google-benchmark JSON run against a committed
results/BENCH_*.json record: for every microbenchmark pair in the record,
recompute the before/after speedup from the fresh run and fail if it fell
more than --tolerance below the committed speedup, or if either benchmark is
missing from the fresh run (a renamed or deleted benchmark must not drop its
guard silently).

The guard is deliberately ratio-based. Absolute ns/op on shared CI runners
is meaningless, but legacy and packed implementations run in the same
process seconds apart, so their ratio survives runner-to-runner variance.
With the default 25% tolerance a committed 1.4x headline fails only below
~1.05x — i.e. when the optimized path has genuinely stopped being faster.

Usage:
  check_bench.py --fresh build/results/BENCH_mm.json \
                 --committed results/BENCH_mm.json [--tolerance 0.25]

Multiple records can be guarded in one invocation (the CI bench-smoke job
checks BENCH_mm and BENCH_engine together):

  check_bench.py --pair build/results/BENCH_mm.json results/BENCH_mm.json \
                 --pair build/results/BENCH_engine.json results/BENCH_engine.json
"""

import argparse
import json
import sys


def load_fresh_times(path):
    """Minimum real_time per benchmark name from a google-benchmark JSON."""
    with open(path) as f:
        data = json.load(f)
    times = {}
    for bench in data.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev) when repetitions are on.
        if bench.get("run_type") == "aggregate":
            continue
        name = bench["name"]
        # Repetition rows carry a "/repeats:N" style suffix on some versions,
        # and ICE_BENCH_ITERS-pinned runs append "/iterations:N". The committed
        # records use the bare benchmark names.
        name = name.split("/repeats:")[0]
        name = name.split("/iterations:")[0]
        t = bench.get("real_time")
        if t is None:
            continue
        if name not in times or t < times[name]:
            times[name] = t
    return times


def check_record(fresh_path, committed_path, tolerance):
    """Checks one fresh-vs-committed record; returns (checked, failures)."""
    with open(committed_path) as f:
        committed = json.load(f)
    fresh = load_fresh_times(fresh_path)

    print(f"== {committed_path} vs {fresh_path}")
    failures = []
    checked = 0
    for key, entry in committed.get("microbenchmarks", {}).items():
        before_name = entry["before"]["name"]
        after_name = entry["after"]["name"]
        committed_speedup = entry["speedup"]
        missing = [n for n in (before_name, after_name) if n not in fresh]
        if missing:
            print(f"{'MISSING':>10}  {key}: {', '.join(missing)} not in fresh run")
            failures.append(key)
            continue
        checked += 1
        fresh_speedup = fresh[before_name] / fresh[after_name]
        floor = committed_speedup * (1.0 - tolerance)
        status = "ok" if fresh_speedup >= floor else "REGRESSION"
        print(f"{status:>10}  {key}: committed {committed_speedup:.2f}x, "
              f"fresh {fresh_speedup:.2f}x (floor {floor:.2f}x)")
        if fresh_speedup < floor:
            failures.append(key)
    return checked, failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fresh",
                        help="google-benchmark JSON from the current run")
    parser.add_argument("--committed",
                        help="committed results/BENCH_*.json record")
    parser.add_argument("--pair", nargs=2, action="append", default=[],
                        metavar=("FRESH", "COMMITTED"),
                        help="additional fresh/committed record pair; repeatable")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional drop in speedup (default 0.25)")
    args = parser.parse_args()

    pairs = list(args.pair)
    if args.fresh or args.committed:
        if not (args.fresh and args.committed):
            parser.error("--fresh and --committed must be given together")
        pairs.insert(0, (args.fresh, args.committed))
    if not pairs:
        parser.error("no records to check: give --fresh/--committed or --pair")

    checked = 0
    failures = []
    for fresh_path, committed_path in pairs:
        record_checked, record_failures = check_record(
            fresh_path, committed_path, args.tolerance)
        checked += record_checked
        failures.extend(record_failures)

    if checked == 0:
        print("error: no benchmark pairs matched between fresh and committed")
        return 1
    if failures:
        print(f"\n{len(failures)} perf regression(s) or missing benchmark(s): "
              f"{', '.join(failures)}")
        return 1
    print(f"\nall {checked} benchmark pair(s) within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
