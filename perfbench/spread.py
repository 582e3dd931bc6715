#!/usr/bin/env python3
"""Run the benchmark once per seed and report each end-to-end metric's
median and quartile spread (IQR / median), next to its bound.

    python3 perfbench/spread.py --workload token_massive --seeds 1 2 3 4 5
    python3 perfbench/spread.py --all --seeds 0 1 2 3 4 5 6 7 8 9

Run from the repository root. Reads the command, run length and bounds
from BENCHMARK.json; prints one line per run and a table per workload.
A spread at or under a third of the bound is marked steady.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    start = time.monotonic()
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=False)
    took = time.monotonic() - start
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return result, took


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", default=[])
    ap.add_argument("--all", action="store_true", help="every workload in BENCHMARK.json")
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(5)))
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]] if args.all else args.workload
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    worst = 0.0
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        for seed in args.seeds:
            result, took = run(bench, workload, seed, args.trace)
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: incorrect result {result}")
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            shown = ", ".join(f"{n}={v[-1]:.6g}" for n, v in values.items())
            print(f"{workload} seed {seed}: {took:.1f} s, {shown}", flush=True)
        if args.trace:
            continue
        print(f"{workload}: {len(args.seeds)} runs")
        for m in metrics:
            v = values[m["name"]]
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            steady = "steady" if spread <= m["bound"] / 3 else "NOT steady"
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            print(f"  {m['name']:<18} median {med:<14.6g} spread {spread:7.4f}  bound {m['bound']}  {steady}")
    if not args.trace:
        print(f"largest spread/bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
