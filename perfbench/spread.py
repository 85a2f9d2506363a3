#!/usr/bin/env python3
"""Repeatability check for the benchmark.

Runs the benchmark command from BENCHMARK.json once per (seed,
workload), interleaving workloads so slow drifts in host speed spread
over all of them, then prints for every end-to-end metric the median
and the interquartile spread as a share of the median, next to the
metric's regression bound. Run from the repository root:

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--out f.json]

Exit status 1 if any run failed or printed no valid result.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out", default="")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = {n: [] for n in names}
    ok = True
    for seed in parse_seeds(args.seeds):
        for name in names:
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            start = time.time()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.time() - start
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
                info = json.loads(lines[-2])
            except (IndexError, ValueError):
                print(f"{name} seed {seed}: no result (exit {proc.returncode})\n"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                ok = False
            runs[name].append({"seed": seed, "wall_s": wall, "info": info,
                               "result": result})
            print(f"{name:14s} seed {seed:3d} {wall:6.1f}s correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
    summary = {}
    for name in names:
        print(f"\n{name}")
        summary[name] = {}
        metrics = runs[name][0]["result"]["metrics"] if runs[name] else {}
        for metric in metrics:
            values = [r["result"]["metrics"][metric]["value"] for r in runs[name]]
            med = statistics.median(values)
            spread = 0.0
            if len(values) >= 2 and med:
                q = statistics.quantiles(values, n=4)
                spread = (q[2] - q[0]) / abs(med)
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and metric != "setup_s" and spread > bound / 3:
                flag = "  <-- above a third of the bound"
            print(f"  {metric:26s} median {med:14.6g}  spread {spread:7.4f}"
                  f"  bound {bound}{flag}")
            summary[name][metric] = {"median": med, "spread": spread,
                                     "values": values}
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"runs": runs, "summary": summary}, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
