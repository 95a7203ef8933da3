#!/usr/bin/env python3
"""Compares two sets of bench/e2e records (e.g. parent vs change).

    python3 bench/e2e/compare.py PARENT_OUT CHANGE_OUT   # two sets
    python3 bench/e2e/compare.py OUT                     # one set: medians only

Each argument is a directory of records written by run.py (by default
<checkout>/.bench_build/e2e/out). For every workload x metric the table shows
each side's median with its quartiles [q1, q3], the change's relative delta,
and a verdict under the metric's bound from BENCHMARK.json:

  ok          the change is no worse than the parent by more than the bound
  REGRESSED   the change is worse than the parent by more than the bound
  unresolved  a side's quartile spread (q3 - q1) / median exceeds the bound,
              and not every change run beats every parent run

The gain column applies the rule a change claiming a speed-up must pass:
at least 10 pairs of runs, alternating which side ran first, the change
winning at least 9 in 10 pairs (ties count for neither), and the gap between
the medians larger than the parent's own quartile spread. Pairs are the i-th
runs of each side in start order. Per-layer metrics (traced records) have no
bound; they are listed with their medians only.

Finally it lists passes that simulated the same units (same workload, seed
and unit count) yet report different sim_digests: a change that only speeds
up the simulator must leave every digest identical. Exits 1 if any metric
REGRESSED.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_records(directory):
    """Records grouped by (workload, traced, smoke), each list in start order."""
    groups = {}
    for path in sorted(Path(directory).glob("*.json")):
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if not isinstance(record, dict) or "workload" not in record or "metrics" not in record:
            continue
        key = (record["workload"], bool(record["trace"]), bool(record["smoke"]))
        groups.setdefault(key, []).append(record)
    for runs in groups.values():
        runs.sort(key=lambda r: r["started"])
    return groups


def values(runs, metric):
    out = []
    for r in runs:
        for m in r["metrics"]:
            if m["name"] == metric and isinstance(m["value"], (int, float)):
                out.append(float(m["value"]))
    return out


def quartiles(xs):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def spread(xs):
    q1, med, q3 = quartiles(xs)
    return (q3 - q1) / abs(med) if med else float("inf")


def worse_by(base, change, better):
    """Relative amount by which `change` is worse than `base` (negative = better)."""
    if base == 0:
        return 0.0 if change == 0 else float("inf")
    delta = (change - base) / abs(base)
    return delta if better == "lower" else -delta


def beats(a, b, better):
    return a < b if better == "lower" else a > b


def alternated(base_runs, change_runs):
    """True when, in start order, runs come in adjacent parent/change pairs
    whose first runner flips from one pair to the next."""
    merged = sorted([(r["started"], "base") for r in base_runs] +
                    [(r["started"], "change") for r in change_runs])
    sides = [side for _, side in merged]
    if len(base_runs) != len(change_runs):
        return False
    firsts = []
    for i in range(0, len(sides), 2):
        if sides[i] == sides[i + 1]:
            return False
        firsts.append(sides[i])
    return all(a != b for a, b in zip(firsts, firsts[1:]))


def gain(base_runs, change_runs, metric, better):
    """Applies the speed-up claim rule; returns a short verdict."""
    base, change = values(base_runs, metric), values(change_runs, metric)
    pairs = min(len(base), len(change))
    if pairs < MIN_PAIRS:
        return f"no ({pairs} pairs < {MIN_PAIRS})"
    if not alternated(base_runs[:pairs], change_runs[:pairs]):
        return "no (runs not alternated)"
    wins = sum(1 for b, c in zip(base, change) if beats(c, b, better))
    q1, base_med, q3 = quartiles(base)
    gap = abs(statistics.median(change) - base_med)
    if wins < WIN_SHARE * pairs:
        return f"no (won {wins}/{pairs})"
    if gap <= q3 - q1:
        return f"no (gap {gap:.4g} <= parent IQR {q3 - q1:.4g})"
    return f"yes (won {wins}/{pairs})"


def digest_conflicts(*group_sets):
    """Passes that simulated the same units (workload, first seed, unit count)
    but produced different sim_digests, across every record given."""
    seen = {}
    for groups in group_sets:
        for runs in groups.values():
            for r in runs:
                for p in r["passes"]:
                    key = (r["workload"], p["seed"], p["units"])
                    seen.setdefault(key, set()).add(p["digest"])
    return len(seen), {k: v for k, v in seen.items() if len(v) > 1}


def fmt(xs):
    q1, med, q3 = quartiles(xs)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(xs)}"


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sections = {False: spec["end_to_end"], True: spec["per_layer"]}
    base_groups = load_records(argv[1])
    change_groups = load_records(argv[2]) if len(argv) == 3 else {}
    regressed = False
    for (workload, traced, smoke), base_runs in sorted(base_groups.items()):
        change_runs = change_groups.get((workload, traced, smoke), [])
        kind = "traced, per-layer" if traced else "end-to-end"
        print(f"== {workload} ({kind}{', smoke' if smoke else ''})")
        for m in sections[traced]:
            base = values(base_runs, m["name"])
            if not base:
                continue
            line = f"  {m['name']:34s} {m['unit']:8s} {fmt(base)}"
            change = values(change_runs, m["name"])
            if change and "bound" in m:
                bound, better = m["bound"], m["better"]
                delta = worse_by(statistics.median(base), statistics.median(change), better)
                all_better = all(beats(c, b, better) for c in change for b in base)
                if spread(base) > bound or spread(change) > bound:
                    verdict = "better (every run)" if all_better else "unresolved"
                elif delta > bound:
                    verdict = "REGRESSED"
                    regressed = True
                else:
                    verdict = "ok"
                line += (f" -> {fmt(change)}  worse by {delta:+.1%} (bound {bound:.0%})"
                         f"  {verdict}; gain: {gain(base_runs, change_runs, m['name'], better)}")
            elif change:
                line += f" -> {fmt(change)}"
            print(line)
    keys, conflicts = digest_conflicts(base_groups, change_groups)
    print(f"sim_digest: {keys} distinct passes, {len(conflicts)} with differing results")
    for (workload, seed, units), digests in sorted(conflicts.items()):
        print(f"  {workload} seed {seed} ({units} units): {' '.join(sorted(digests))}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
