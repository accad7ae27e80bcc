#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py [--workloads search,serve] [--seeds 1-10]
                                [--out results.json]

Runs perfbench/run.py once per workload and seed (untraced, run_seconds
from BENCHMARK.json), then prints for every end-to-end metric its median,
its interquartile range as a share of the median (the spread, from
statistics.quantiles(values, n=4)), and that spread as a share of the
metric's bound. A benchmark is steady when every spread, setup_s's
included, is well below its bound. Run from the root of a checkout.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", help="write every run's result here (JSON)")
    args = parser.parse_args()

    runs = {}
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}", flush=True)
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["seed"] = seed
            result["notes"] = [line for line in lines if line.startswith("#")]
            runs[workload].append(result)
            values = " ".join(f"{name}={m['value']:.4g}"
                              for name, m in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)

    for workload, results in runs.items():
        print(f"\n{workload} ({len(results)} runs)")
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            if len(values) < 2:
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else float("inf")
            print(f"  {metric['name']:16s} median {med:12.5g} {metric['unit']:7s} "
                  f"spread {spread:6.3f}  of bound {spread / metric['bound']:5.2f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
