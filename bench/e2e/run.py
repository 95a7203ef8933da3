#!/usr/bin/env python3
"""End-to-end benchmark of icesim: builds bench/e2e and runs its workloads.

    python3 bench/e2e/run.py                        # every workload, seed 1
    python3 bench/e2e/run.py --workload sweep-fig9 --seed 3 --seconds 30 --trace 0
    python3 bench/e2e/run.py --workload=fleet-ladder --trace   # per-layer replay
    python3 bench/e2e/run.py --smoke                # all workloads, tiny, < 30 s

Each workload runs in its own process (build/ice_e2e). Every metric prints as
`workload metric value unit`; each run also writes a JSON record to
.bench_build/e2e/out/, which compare.py reads. Untraced runs report the
end-to-end metrics of BENCHMARK.json, traced runs (--trace) its per-layer
metrics and write spans_<workload>.json (Chrome trace_event) next to the
records. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The exit status is 0 only when every check
passed; a build failure exits 2 without printing a result.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORK = ROOT / ".bench_build" / "e2e"
BUILD = WORK / "build"
OUT = WORK / "out"
BINARY = BUILD / "ice_e2e"
# A run must end within 180 s; leave room for the build check and output.
RUN_TIMEOUT_S = 170
SMOKE_BUDGET_S = 30


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures (once) and builds ice_e2e; returns False on failure."""
    WORK.mkdir(parents=True, exist_ok=True)
    log_path = WORK / "build.log"
    configured = BUILD / "configured.ok"
    steps = []
    if not configured.exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "ice_e2e",
                  "-j", str(min(4, os.cpu_count() or 1))])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.close()
                tail = log_path.read_text(errors="replace")[-4000:]
                print(f"build failed: {' '.join(cmd)}\n{tail}", file=sys.stderr)
                return False
            if cmd[1] == "-S":
                configured.touch()
    return True


def metric_check(result, section, spec):
    """Every metric of the section is present, with its unit, as a number;
    end-to-end metrics must also be non-zero."""
    got = {m["name"]: m for m in result["metrics"]}
    bad = []
    for want in spec[section]:
        m = got.get(want["name"])
        if m is None or m["unit"] != want["unit"] or not isinstance(m["value"], (int, float)):
            bad.append(want["name"])
        elif section == "end_to_end" and m["value"] == 0:
            bad.append(want["name"] + "=0")
    return {"name": "metrics_complete", "ok": not bad,
            "detail": "missing, mis-unitized or zero: " + ", ".join(bad) if bad else ""}


def run_one(workload, seed, seconds, trace, smoke, spec):
    """Runs one workload in its own process; returns its record, or None."""
    OUT.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds}"]
    if trace:
        cmd += ["--trace", f"--spans={OUT / f'spans_{workload}.json'}"]
    if smoke:
        cmd.append("--smoke")
    started = time.time()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: ice_e2e exited {proc.returncode}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])

    section = "per_layer" if trace else "end_to_end"
    result["checks"].append(metric_check(result, section, spec))
    result["attempted"] += 1
    result["failed"] += 0 if result["checks"][-1]["ok"] else 1
    result["fail_frac"] = result["failed"] / result["attempted"]
    result["correct"] = result["failed"] == 0
    result.update(started=started, wall_s=time.time() - started, seconds=seconds,
                  host={"nproc": os.cpu_count(), "machine": platform.machine()})
    wanted = {m["name"] for m in spec[section]}
    result["summary_metrics"] = {m["name"]: {"value": m["value"], "unit": m["unit"]}
                                  for m in result["metrics"] if m["name"] in wanted}

    for m in result["metrics"]:
        print(f"{workload} {m['name']} {m['value']:.6g} {m['unit']}")
    print(f"{workload} fail_frac {result['fail_frac']:.6g} ratio")
    print(f"{workload} sim_digest {result['sim_digest']}")
    for layer, ms in sorted(result["self_ms"].items(), key=lambda kv: -kv[1]):
        print(f"{workload} self_ms.{layer} {ms:.6g} ms")
    for c in result["checks"]:
        print(f"{workload} check {c['name']} {'ok' if c['ok'] else 'FAIL ' + c['detail']}")

    name = f"{workload}-trace{int(trace)}-seed{seed}-{time.time_ns()}.json"
    with open(OUT / name, "w") as f:
        json.dump(result, f, indent=1)
    return result


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names, help="default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"],
                        help="measurement window of an untraced run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=[0, 1],
                        help="replay a fixed subset with spans; report per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="1 pass, 1/10 of the units, untraced and traced")
    args = parser.parse_args()

    if not build():
        return 2
    workloads = [args.workload] if args.workload else names
    modes = [0, 1] if args.smoke else [args.trace]
    t0 = time.monotonic()
    records = []
    for workload in workloads:
        for trace in modes:
            record = run_one(workload, args.seed, args.seconds, trace, args.smoke, spec)
            if record is None:
                return 2
            records.append(record)

    correct = all(r["correct"] for r in records)
    if args.smoke:
        elapsed = time.monotonic() - t0
        print(f"smoke: {elapsed:.1f} s (budget {SMOKE_BUDGET_S} s)")
        correct = correct and elapsed < SMOKE_BUDGET_S
    if len(records) == 1:
        metrics = records[0]["summary_metrics"]
    else:  # Several runs: the end-to-end metrics of each workload.
        metrics = {f"{r['workload']}/{k}": v for r in records if not r["trace"]
                   for k, v in r["summary_metrics"].items()}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
