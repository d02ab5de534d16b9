#!/usr/bin/env python3
"""Steadiness check: run a workload in sets of seeded runs and report each
end-to-end metric's spread against its bound in BENCHMARK.json.

Usage (from the root of a checkout):

    python3 ladderbench/steady.py --workload churn-mixed --runs 10 --sets 2

Every run measures for BENCHMARK.json's run_seconds. Set k uses seeds
seed_base + k*runs ... seed_base + k*runs + runs - 1. For each metric it
prints the median of every set, the widest spread of any set (inter-quartile
distance over the median, quartiles as statistics.quantiles(values, n=4)
gives them) and the worsening of each later set's median against the first
set's (as a share of the first). A spread or a worsening above the metric's
bound fails the check; the exit code is then 1.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"run failed: workload={workload} seed={seed} "
                         f"rc={proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"incorrect output: workload={workload} seed={seed}")
    return {k: v["value"] for k, v in result["metrics"].items()}, elapsed


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def worsening(first, later, better):
    """How much `later` is worse than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    delta = (later - first) / abs(first)
    return delta if better == "lower" else -delta


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: m for m in spec[kind]}

    sets = []
    for k in range(args.sets):
        runs = []
        for i in range(args.runs):
            seed = args.seed_base + k * args.runs + i
            values, elapsed = run_once(args.workload, seed, seconds, args.trace)
            runs.append(values)
            print(f"set {k} seed {seed}: {elapsed:.1f} s", file=sys.stderr)
        sets.append(runs)

    ok = True
    print(f"{args.workload}: {args.sets} sets x {args.runs} runs, "
          f"{seconds} s each")
    print(f"{'metric':36} {'medians':>30} {'spread':>8} {'worsening':>10} "
          f"{'bound':>6}  verdict")
    for name, m in metrics.items():
        series = [[r[name] for r in runs] for runs in sets]
        medians = [statistics.median(s) for s in series]
        bound = m.get("bound")
        sp = max(spread(s) for s in series) if args.runs >= 2 else 0.0
        worse = max([worsening(medians[0], x, m["better"])
                     for x in medians[1:]] or [0.0])
        verdict = "-"
        if bound is not None:
            bad_spread = sp > bound
            bad_worse = worse > bound
            verdict = "FAIL" if bad_spread or bad_worse else (
                "ok" if sp <= bound / 3 else "wide")
            ok = ok and not (bad_spread or bad_worse)
        med = " ".join(f"{x:.4g}" for x in medians)
        print(f"{name:36} {med:>30} {sp:8.4f} {worse:10.4f} "
              f"{bound if bound is not None else '-':>6}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
