#!/usr/bin/env python3
"""Steadiness check: run one workload repeatedly and report the spread
of every metric against its bound in BENCHMARK.json.

Usage, from the root of a checkout:

    python3 perfbench/steady.py --workload dna-query --runs 10 [--first-seed 1]
        [--seconds N] [--trace] [--same-seed] [--json OUT]

Each run gets its own seed (first-seed, first-seed + 1, ...), unless
--same-seed is given.  For every metric it prints the median, the
quartiles as statistics.quantiles(values, n=4) gives them, and the
spread: the interquartile distance as a share of the median, beside
the metric's bound (end-to-end metrics only): "yes" within a third of
the bound, "within bound", or "NO".  It exits 1 if any spread exceeds
its bound.  With --same-seed it also says whether each value repeats
exactly across the runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--same-seed", action="store_true")
    ap.add_argument("--json", help="write every run's result here")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    declared = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}

    results = []
    for i in range(args.runs):
        seed = args.first_seed if args.same_seed else args.first_seed + i
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds),
                                  "--trace", "1" if args.trace else "0"]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
        if out.returncode != 0:
            print(f"run {i} (seed {seed}) exited {out.returncode}", file=sys.stderr)
            return 1
        res = json.loads(out.stdout.strip().splitlines()[-1])
        res["seed"] = seed
        results.append(res)
        print(f"run {i + 1}/{args.runs} seed {seed}: attempted {res['attempted']}"
              f" failed {res['failed']} correct {res['correct']}", file=sys.stderr)

    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=1)

    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{args.workload}: {len(results)} runs, seconds {seconds}, "
          f"failed share {sorted(shares)}, all correct "
          f"{all(r['correct'] for r in results)}")
    print(f"{'metric':40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
          f"{'bound':>6}  ok{' repeats' if args.same_seed else ''}")
    ok = True
    for m in declared:
        name = m["name"]
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = bounds[name]
        verdict = ""
        if bound is not None:
            verdict = "yes" if spread <= bound / 3 else (
                "within bound" if spread <= bound else "NO")
            ok = ok and spread <= bound
        if args.same_seed:
            verdict += " exact" if len(set(values)) == 1 else " varies"
        print(f"{name:40} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
              f"{bound if bound is not None else '':>6}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
