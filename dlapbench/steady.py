#!/usr/bin/env python3
"""Steadiness report: repeated runs of each workload, with their spread.

    python3 dlapbench/steady.py --runs 10 [--sets 2]

Run from the repository root. Runs run.py on every workload of
BENCHMARK.json for run_seconds, once per (set, seed, workload), with
seeds 1.. in set 1 and 1001.. in set 2, interleaving workloads and sets
so host drift spreads over all of them, and prints one line per run with
the host's CPU steal share over that run (from /proc/stat). Then, per
workload, end-to-end metric and set: the median, the quartiles, min and
max, and the spread (Q3 - Q1) / median next to the metric's bound. With
two sets it also prints how far the second set's median moved from the
first's, in the metric's worse direction. Exits nonzero when a run
fails, when a set's spread exceeds its bound, or when a median moves
either way by more than its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def host_cpu():
    with open("/proc/stat") as f:
        fields = [int(v) for v in f.readline().split()[1:9]]
    return fields[7], sum(fields)


def one_run(workload, seed, seconds):
    steal0, total0 = host_cpu()
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    wall = time.monotonic() - start
    steal1, total1 = host_cpu()
    steal = (steal1 - steal0) / max(1, total1 - total0)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return result, steal, wall


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="seeds per set")
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    # values[set][workload][metric] -> list
    values = [{w: {} for w in workloads} for _ in range(args.sets)]
    ok = True
    for i in range(args.runs):
        for s in range(args.sets):
            order = workloads if (i + s) % 2 == 0 else list(reversed(workloads))
            for w in order:
                seed = 1 + i + 1000 * s
                result, steal, wall = one_run(w, seed, seconds)
                if result is None or not result["correct"]:
                    ok = False
                    print(f"set {s + 1} {w:12s} seed {seed:5d}  FAILED "
                          f"(steal {100 * steal:.1f}%)", flush=True)
                    continue
                shown = []
                for name, m in result["metrics"].items():
                    values[s][w].setdefault(name, []).append(m["value"])
                    if name in ("setup_s", "qps", "p50_ms", "gen_s"):
                        shown.append(f"{name} {m['value']:.4g}")
                print(f"set {s + 1} {w:12s} seed {seed:5d}  steal {100 * steal:4.1f}%  "
                      f"wall {wall:5.1f} s  " + "  ".join(shown), flush=True)

    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':16s} {'set':>3s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
              f"{'min':>11s} {'max':>11s} {'spread':>7s} {'bound':>6s}  {'moved':>7s}")
        for name in bounds:
            bound = bounds[name]["bound"]
            first = None
            for s in range(args.sets):
                series = values[s][w].get(name, [])
                if not series:
                    continue
                q1, med, q3 = quartiles(series)
                spread = (q3 - q1) / med if med else float("inf")
                flag = ""
                if spread > bound:
                    flag, ok = " SPREAD", False
                elif spread > bound / 3:
                    flag = " (over bound/3)"
                moved = ""
                if first is None:
                    first = med
                else:
                    worse = ((med - first) / first if bounds[name]["better"] == "lower"
                             else (first - med) / first)
                    moved = f"{100 * worse:+6.1f}%"
                    if abs(worse) > bound:
                        flag, ok = flag + " MOVED", False
                print(f"  {name:16s} {s + 1:3d} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                      f"{min(series):11.5g} {max(series):11.5g} {100 * spread:6.2f}% "
                      f"{100 * bound:5.3g}%  {moved:>7s}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
