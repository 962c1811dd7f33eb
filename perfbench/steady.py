#!/usr/bin/env python3
"""Steadiness self-check for the benchmark.

Runs the benchmark command of BENCHMARK.json several times per workload,
each time with another seed, and prints for every end-to-end metric its
median, its quartiles, the spread (third quartile minus first, as a share of
the median) and the metric's bound. A spread above its bound (setup_s
excepted) or a run that reports a failure makes the exit code 1. This is how
the bounds in BENCHMARK.json were set and justified.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
                                [--workloads node_mix,kv_read] [--seconds 15]
                                [--trace] [--same-seed]

Run it from the root of the repository. --trace checks the traced run
instead: with --same-seed, every count must repeat exactly, and each timing
prints its spread.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--same-seed", action="store_true")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = opts.seconds or bench["run_seconds"]
    workloads = opts.workloads.split(",") if opts.workloads else [
        w["name"] for w in bench["workloads"]]
    metrics = bench["per_layer"] if opts.trace else bench["end_to_end"]

    ok = True
    for workload in workloads:
        reports = []
        for i in range(opts.runs):
            seed = opts.first_seed + (0 if opts.same_seed else i)
            report = run_once(bench["command"], workload, seed, seconds, opts.trace)
            if not report["correct"] or report["failed"]:
                print(f"{workload} seed {seed}: {report['failed']} of "
                      f"{report['attempted']} failed")
                ok = False
            reports.append(report)
        print(f"\n{workload}: {opts.runs} runs, {seconds} s each")
        print(f"{'metric':>36} {'q1':>14} {'median':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in reports]
            q1, q2, q3, s = spread(values)
            bound = m.get("bound")
            if opts.trace:
                note = "identical" if len(set(values)) == 1 else ""
                timing = m["unit"].endswith("ms")
                if not timing and opts.same_seed and note != "identical":
                    note, ok = "COUNT DIFFERS", False
            else:
                note = f"{s / bound:.2f} of bound"
                if s > bound and m["name"] != "setup_s":
                    note, ok = note + " OVER", False
            print(f"{m['name']:>36} {q1:>14.6g} {q2:>14.6g} {q3:>14.6g} "
                  f"{s:>8.4f} {bound if bound is not None else '':>6} {note}")
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
