#!/usr/bin/env python3
"""Compare two checkouts' benchmark numbers in alternating pairs.

    python3 tools/ab_pairs.py BASE NEW --workload production --seed 7 \\
        --pairs 5 --metric setup_s --metric routing.us_per_call

Runs each checkout's ``perfbench/run.py`` N times at BASE's
BENCHMARK.json ``run_seconds``, alternating which side goes first in
each pair so drift on a shared host falls on both sides alike. The
benchmark reports its end-to-end metrics untraced and its per-layer
ones traced, so each side runs once untraced when an end-to-end metric
is named and once traced when a per-layer one is (both when none is
named). For each named metric (every metric when none is named) it
prints each side's median and quartiles and how many pairs each side
won, by the direction BASE's BENCHMARK.json gives the metric; equal
values win for neither side. Exits 1 if a run fails, or if the two
sides print different ``digest`` lines (the simulated results differ);
the metric table is printed first either way, so a change that moves a
digest on purpose still shows its end-to-end metrics. Writes nothing but each checkout's own ``.bench_build/``.
Stdlib only.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout, args, seconds, trace):
    """One run: (digest lines, {metric: value})."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"ab_pairs: {checkout}: run failed (exit "
                 f"{proc.returncode})")
    digests = [l for l in lines if l.startswith("digest ")]
    metrics = json.loads(lines[-1])["metrics"]
    return digests, {name: m["value"] for name, m in metrics.items()}


def quartiles(values):
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path, help="checkout A (the baseline)")
    parser.add_argument("new", type=Path, help="checkout B (the candidate)")
    parser.add_argument("--workload", default="production")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--metric", action="append", default=[],
                        help="metric to report (repeatable)")
    args = parser.parse_args()
    sides = [args.base.resolve(), args.new.resolve()]

    spec = json.loads((sides[0] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    unknown = [name for name in args.metric if name not in better]
    if unknown:
        parser.error(f"not in BENCHMARK.json: {', '.join(unknown)}")
    names = args.metric or list(better)
    modes = sorted({0 if name in end_to_end else 1 for name in names})

    runs = ([], [])
    digests = [None, None]
    for pair in range(args.pairs):
        order = (0, 1) if pair % 2 == 0 else (1, 0)
        for side in order:
            values = {}
            for trace in modes:
                got, metrics = run_once(sides[side], args,
                                        spec["run_seconds"], trace)
                values.update(metrics)
                if digests[side] is None:
                    digests[side] = got
                elif got != digests[side]:
                    sys.exit(f"ab_pairs: {sides[side]}: digest lines "
                             f"changed between runs")
            runs[side].append(values)
        print(f"pair {pair + 1}/{args.pairs} done (first: "
              f"{'base' if order[0] == 0 else 'new'})", flush=True)

    for line in digests[0]:
        print(f"base {line}")
    for line in digests[1]:
        print(f"new  {line}")

    print(f"{'metric':<28} {'base q1/med/q3':>32} {'new q1/med/q3':>32} "
          f"{'wins b/n':>9}")
    for name in names:
        a = [r[name] for r in runs[0]]
        b = [r[name] for r in runs[1]]
        lower = better.get(name, "lower") == "lower"
        wins = [0, 0]
        for x, y in zip(a, b):
            if x != y:
                wins[(y < x) == lower] += 1
        fa = "/".join(f"{v:.4g}" for v in quartiles(a))
        fb = "/".join(f"{v:.4g}" for v in quartiles(b))
        print(f"{name:<28} {fa:>32} {fb:>32} {wins[0]:>4}/{wins[1]:<4}")
    if digests[0] != digests[1]:
        print("ab_pairs: the two sides' digest lines differ")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
