#!/usr/bin/env python3
"""Checks that the benchmark is steady enough for its own bounds.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 1-10]
                                    [--heldout 1001-1010]

Run it from the repository root. For each workload it runs
perfbench/run.py once per seed (untraced) and, for every end-to-end metric
in BENCHMARK.json, prints the median and the spread: the distance between
the first and third quartiles (statistics.quantiles, n=4) as a share of the
median. A spread above the metric's bound fails; one above a third of the
bound is flagged. With --heldout it repeats the runs on a second seed set
that was not used while tuning, and fails any metric whose held-out median
differs from the first median, in either direction, by more than its
bound. Exits 1 on any failure.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: outputs incorrect")
    return {name: m["value"] for name, m in result["metrics"].items()}


def collect(workload, seeds, seconds):
    values = {}
    for seed in seeds:
        for name, value in run_once(workload, seed, seconds).items():
            values.setdefault(name, []).append(value)
    return values


def worse_by(metric, base, other):
    """Relative amount by which `other` is worse than `base` (< 0: better)."""
    if base == 0:
        return 0.0
    change = (other - base) / abs(base)
    return change if metric["better"] == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="",
                        help="comma-separated subset (default: all)")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--heldout", type=seed_range, default=None,
                        help="second seed set, e.g. 1001-1010")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])

    failures = 0
    for workload in workloads:
        first = collect(workload, args.seeds, bench["run_seconds"])
        second = (collect(workload, args.heldout, bench["run_seconds"])
                  if args.heldout else None)
        print(f"== {workload} (seeds {args.seeds[0]}-{args.seeds[-1]})")
        for name, metric in metrics.items():
            values = first[name]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2 if q2 else 0.0
            verdict = "ok"
            if spread > metric["bound"]:
                verdict = "FAIL spread"
            elif spread > metric["bound"] / 3:
                verdict = "wide"
            line = (f"  {name:16s} median {q2:12.6g} {metric['unit']:6s} "
                    f"spread {spread:7.2%} (bound {metric['bound']:.0%})")
            if second is not None:
                held = statistics.median(second[name])
                worse = worse_by(metric, q2, held)
                line += f"  held-out median {held:12.6g} ({worse:+.2%} worse)"
                if abs(worse) > metric["bound"]:
                    verdict = "FAIL held-out"
            failures += verdict.startswith("FAIL")
            print(f"{line}  {verdict}")
            print("      " + " ".join(f"{v:.6g}" for v in values))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
