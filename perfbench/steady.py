#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs each workload once per seed, one run at a time, and prints for every
metric its median, its first and third quartiles (statistics.quantiles with
n=4, as the acceptance rule takes them), and the quartile spread as a share
of the median, next to the metric's bound in BENCHMARK.json. It also checks
that every run was correct and that the share of failed operations is the
same in every run of a workload.

Run from the repository root:

    python3 perfbench/steady.py                       # every workload, seeds 1-10
    python3 perfbench/steady.py --workloads refine --seeds 5
    python3 perfbench/steady.py --first-seed 101 --trace 1

Exit status is 1 when a run fails, a check fails, or a spread exceeds its
bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit status {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    ap.add_argument("--workloads", default="", help="comma-separated; default all")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--verbose", action="store_true", help="also print every run's value")
    args = ap.parse_args()

    with open(args.benchmark) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    ok = True
    for w in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            res = run_once(spec, w, seed, args.trace)
            runs.append(res)
            print(f"{w} seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}",
                  flush=True)
        if not all(r["correct"] for r in runs):
            print(f"{w}: a run reported incorrect output")
            ok = False
        shares = {r["failed"] / r["attempted"] for r in runs}
        if len(shares) != 1:
            print(f"{w}: failed share differs between runs: {sorted(shares)}")
            ok = False
        print(f"{w}: {len(runs)} runs")
        print(f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in runs if m["name"] in r["metrics"]]
            if len(vals) != len(runs):
                print(f"  {m['name']:28s} missing from {len(runs) - len(vals)} runs")
                ok = False
                continue
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0], 0, vals[0])
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = m.get("bound")
            flag = ""
            if bound is not None and spread > bound:
                flag = "  OVER"
                ok = False
            elif bound is not None and spread > bound / 3:
                flag = "  >1/3"
            b = f"{bound:6.3f}" if bound is not None else "     -"
            print(f"  {m['name']:28s} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} {b}{flag}")
            if args.verbose:
                print("    " + " ".join(f"{v:.4g}" for v in vals))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
