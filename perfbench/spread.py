#!/usr/bin/env python3
"""Run the benchmark over several seeds and report how steady it is.

    python3 perfbench/spread.py run --workloads a,b --seeds 1-10 --seconds 20 --out set1.json
    python3 perfbench/spread.py compare set1.json set2.json

Run from the repository root. `run` calls perfbench/run.py once per
workload and seed (untraced), checks every result is correct, and writes
the per-run metric values as JSON. `compare` prints, for every workload
and end-to-end metric, each set's median and spread (interquartile range
over median, from statistics.quantiles(values, n=4)) and how far the
second median is from the first, as a Markdown table.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def run(args):
    values = {}
    for workload in args.workloads.split(","):
        for seed in seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, check=False)
            if out.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: incorrect result {result}")
            for name, metric in result["metrics"].items():
                values.setdefault(workload, {}).setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: v["value"] for k, v in result["metrics"].items()}, flush=True)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(values, f, indent=1)


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def compare(args):
    with open(args.first, encoding="utf-8") as f:
        first = json.load(f)
    with open(args.second, encoding="utf-8") as f:
        second = json.load(f)
    print("| workload | metric | median 1 | spread 1 | median 2 | spread 2 | 2 vs 1 |")
    print("|---|---|---|---|---|---|---|")
    for workload, metrics in first.items():
        for name, values in metrics.items():
            med1, spread1 = stats(values)
            med2, spread2 = stats(second[workload][name])
            print(f"| {workload} | {name} | {med1:.4g} | {spread1:.3f} | {med2:.4g} | "
                  f"{spread2:.3f} | {med2 / med1 - 1:+.3f} |")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run")
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--out", required=True)
    p = sub.add_parser("compare")
    p.add_argument("first")
    p.add_argument("second")
    args = parser.parse_args()
    if args.cmd == "run":
        run(args)
    else:
        compare(args)


if __name__ == "__main__":
    main()
