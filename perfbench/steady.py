#!/usr/bin/env python3
"""Steadiness check: run each workload of BENCHMARK.json with several seeds
and compare the spread of every end-to-end metric with its bound.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--compare OUT.json]

The workloads, the run length and the bounds are those of BENCHMARK.json,
so the check speaks of the runs the bounds are for.  For each workload
and metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), the spread (Q3 - Q1) /
median and the bound.  A spread below a third of the bound is marked
`steady`, one below the bound `ok`, anything else `WIDE`.  It also checks
that every run reports `correct` and the same share of failed operations.
The raw results go to perfbench/out/steady-<time>.json.

With `--compare` it also reads the results of an earlier set of runs and
checks, per workload and metric, that this set's median is not worse than
the earlier one's by more than the bound, and that the failed shares are
the same: the two-set check.  Give the second set other seeds with
`--first-seed` (for example 11), so that it does not repeat the first.

Exit code 0 when every spread and every comparison is within its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--compare", help="steady-*.json of an earlier set of runs")
    args = p.parse_args()
    earlier = None
    if args.compare:
        with open(args.compare) as fh:
            earlier = json.load(fh)

    metrics = bench["end_to_end"]
    results = {}
    bad = False
    for workload in [w["name"] for w in bench["workloads"]]:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                print(f"{workload} seed {seed}: exit code {proc.returncode}")
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["seed"], res["wall_s"] = seed, wall
            runs.append(res)
            print(f"{workload} seed {seed}: {wall:.1f} s wall, correct={res['correct']}, "
                  f"failed {res['failed']}/{res['attempted']}, "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                  flush=True)
        results[workload] = runs
        shares = {r["failed"] / r["attempted"] for r in runs}
        if earlier is not None:
            shares |= {r["failed"] / r["attempted"] for r in earlier[workload]}
        if not all(r["correct"] for r in runs) or len(shares) != 1:
            print(f"{workload}: correct={[r['correct'] for r in runs]}, failed shares {sorted(shares)}")
            bad = True
        print(f"{'metric':<14} {'median':>11} {'Q1':>11} {'Q3':>11} {'spread':>8} {'bound':>6}"
              + ("  earlier median   shift" if earlier is not None else ""))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            mark = "steady" if spread < bound / 3 else ("ok" if spread <= bound else "WIDE")
            bad |= spread > bound
            line = f"{name:<14} {med:11.5g} {q1:11.5g} {q3:11.5g} {spread:8.4f} {bound:6.2f}  {mark:<6}"
            if earlier is not None:
                before = statistics.median(r["metrics"][name]["value"] for r in earlier[workload])
                shift = (med - before) / before if m["better"] == "lower" else (before - med) / before
                bad |= shift > bound
                line += f"  {before:11.5g} {shift:+7.4f}{'  WORSE' if shift > bound else ''}"
            print(line)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w") as fh:
        json.dump(results, fh, indent=1)
    print(f"wrote {path}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
