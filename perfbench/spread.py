#!/usr/bin/env python3
"""Runs the benchmark once per seed and prints each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload paper [--workload fleet ...]
        [--seeds 10] [--first-seed 1] [--seconds N]

The command and run length come from BENCHMARK.json. For every end-to-end
metric the script prints the median over the seeds and the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound and a third of it.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, check=True, stdout=subprocess.PIPE, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run: {result}")
    return result["metrics"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--verbose", action="store_true", help="print every value")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst_ok = True
    for workload in args.workload:
        runs = [run_once(spec["command"], workload, seed, seconds)
                for seed in range(args.first_seed, args.first_seed + args.seeds)]
        print(f"{workload}: {len(runs)} seeds, {seconds} s runs")
        for name in runs[0]:
            values = [r[name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                ok = spread < bound / 3
                worst_ok &= ok
                verdict = f"bound {bound:.3f} (third {bound / 3:.3f}) {'ok' if ok else 'WIDE'}"
            print(f"  {name:<34} median {med:>14.6g} {runs[0][name]['unit']:<6} "
                  f"IQR/median {spread:7.4f} {verdict}")
            if args.verbose:
                print("    " + " ".join(f"{v:.6g}" for v in values))
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
