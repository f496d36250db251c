#!/usr/bin/env python3
"""Steadiness check of one benchmark workload.

    python3 perfbench/steady.py --workload W [--runs K] [--first-seed N]
                                [--seconds S] [--trace 0|1]

Run from the repository root. Runs perfbench/run.py K times on W, each
time with the next seed, and prints for every metric its median, first
and third quartiles (statistics.quantiles, n=4), and the quartile spread
as a share of the median against the metric's bound in BENCHMARK.json
(end-to-end metrics only; a spread above a third of the bound is marked).
Also checks that every run answered correctly and that the answers
digest and every count metric repeat exactly across the runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {}
    units = {}
    digests = set()
    ok = True
    for k in range(args.runs):
        seed = args.first_seed + k
        done = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed), "--seconds",
             str(seconds), "--trace", args.trace],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}")
            print("\n".join(l for l in lines if l.startswith("CHECK")))
            ok = False
            continue
        result = json.loads(lines[-1])
        for line in lines:
            if line.startswith("answers_digest "):
                digests.add(line.split()[1])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        ok = ok and result["correct"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    print(f"\n{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0], 0, vals[0]))
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        mark = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            mark = "  <-- above bound/3"
        if units[name] == "count" and len(set(vals)) > 1:
            mark = "  <-- count differs across runs"
        print(f"{name:34} {median:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.4f} {bound if bound is not None else '':>6}{mark}")
    if len(digests) > 1:
        print(f"answers digest differs across runs: {sorted(digests)}")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
