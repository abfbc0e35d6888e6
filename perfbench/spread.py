#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Run from the repository root:

    python3 perfbench/spread.py [--workloads fleet,elastic,writeback] \
        [--seeds 1-10] [--seconds S] [--out FILE]

Runs ``perfbench/run.py --trace 0`` once per seed on each workload (one
process at a time), then prints, per metric, the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, next to the metric's bound from
``BENCHMARK.json``. ``--out`` also writes every run's values and report
lines (raw wall and reference-work quartiles among them) as JSON.
Exits non-zero if a run fails or a spread (other than ``setup_s``)
exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="fleet,elastic,writeback")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {}
    ok = True
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            last = done.stdout.strip().splitlines()[-1:] if done.stdout.strip() else []
            if done.returncode != 0 or not last:
                print(f"{workload} seed {seed}: run failed (exit {done.returncode})")
                ok = False
                continue
            result = json.loads(last[0])
            values = {k: v["value"] for k, v in result["metrics"].items()}
            report = done.stdout.strip().splitlines()[1:-1]
            runs[workload].append({"seed": seed, "correct": result["correct"],
                                   "failed": result["failed"], "metrics": values,
                                   "report": [line.strip() for line in report]})
            print(f"{workload} seed {seed}: " +
                  ", ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)
    print()
    print(f"{'workload':10} {'metric':20} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for workload, rs in runs.items():
        if len(rs) < 2:
            continue
        for name, bound in bounds.items():
            vals = [r["metrics"][name] for r in rs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > bound:
                flag = "  OVER BOUND"
                ok = ok and name == "setup_s"
            elif spread > bound / 3:
                flag = "  over bound/3"
            print(f"{workload:10} {name:20} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {bound:6.2f}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seconds": seconds, "runs": runs}, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
