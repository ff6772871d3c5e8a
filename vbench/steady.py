#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs each workload N times with distinct seeds, the way BENCHMARK.json says
to run it (its command and its run_seconds), and prints for every metric the
median, the quartiles and the spread (interquartile distance as a share of
the median) against the metric's bound. Quartiles use
``statistics.quantiles(values, n=4)``.

With ``--sets 2`` (the default) it runs two such sets, the second on the
next N seeds, and compares their medians in both orders: a metric fails if
either set's median is worse than the other's by more than the bound, since
a later change may be measured after a set like either one.

    python3 vbench/steady.py --runs 10                      # two sets, every workload
    python3 vbench/steady.py --runs 5 --sets 1 --workloads receiver-dense --seed0 100
    python3 vbench/steady.py --runs 2 --sets 1 --trace 1    # per-layer metrics

Run from the repository root. Exits 1 if a run fails, prints no result or
reports ``correct: false``, if an end-to-end spread exceeds its bound, or if
two sets' medians differ by more than the bound in either order.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def worse_by(better, base, other):
    """How much worse ``other`` is than ``base``, as a share of ``base``."""
    if better == "lower":
        return (other - base) / base
    return (base - other) / base


def report_set(workload, seeds, runs, bounds):
    """Prints one set's table; returns (ok, {metric: median})."""
    ok = True
    medians = {}
    print(f"\n{workload}: {len(runs)} runs, seeds {seeds[0]}..{seeds[-1]}")
    print(f"  {'metric':<30} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for metric in runs[0]["metrics"]:
        values = [r["metrics"][metric]["value"] for r in runs]
        if any(v is None for v in values):
            print(f"  {metric:<30} non-finite value")
            ok = False
            continue
        med = statistics.median(values)
        medians[metric] = med
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(metric)
        flag = ""
        if bound is not None:
            if not spread <= bound:
                flag = "OVER BOUND"
                ok = False
            elif spread > bound / 3:
                flag = "> bound/3"
        shown = "" if bound is None else f"{bound:.2f}"
        print(f"  {metric:<30} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.4f} {shown:>6} {flag}")
    return ok, medians


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=2)
    ap.add_argument("--workloads", default="", help="comma-separated; default all")
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")

    ok = True
    for workload in names:
        set_medians = []
        for s in range(args.sets):
            seeds = [args.seed0 + s * args.runs + i for i in range(args.runs)]
            runs = []
            for seed in seeds:
                out = run_once(bench["command"], workload, seed,
                               bench["run_seconds"], args.trace)
                runs.append(out)
                if not out["correct"] or out["failed"]:
                    print(f"{workload} seed {seed}: correct={out['correct']} failed={out['failed']}")
                    ok = False
            set_ok, medians = report_set(workload, seeds, runs, bounds)
            ok = ok and set_ok
            set_medians.append(medians)
        if len(set_medians) < 2:
            continue
        first, second = set_medians
        print(f"  {'two sets':<30} {'median 1':>12} {'median 2':>12} {'2 vs 1':>8} {'1 vs 2':>8} {'bound':>6}")
        for metric, bound in bounds.items():
            if metric not in first or metric not in second:
                continue
            a, b = first[metric], second[metric]
            fwd = worse_by(better[metric], a, b) if a else 0.0
            rev = worse_by(better[metric], b, a) if b else 0.0
            flag = ""
            if max(fwd, rev) > bound:
                flag = "MEDIANS DISAGREE"
                ok = False
            print(f"  {metric:<30} {a:>12.5g} {b:>12.5g} {fwd:>+8.3f} {rev:>+8.3f} {bound:>6.2f} {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
