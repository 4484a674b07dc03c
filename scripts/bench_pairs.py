#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, summarised per metric.

Run from anywhere::

    python3 scripts/bench_pairs.py PARENT CHANGE --workload quotient --pairs 10 --seed 1

Each pair runs the unchanged ``perfbench/run.py --trace 0`` once in each
checkout, for the ``run_seconds`` that ``BENCHMARK.json`` sets, the parent
first in even pairs and the change first in odd ones, with workload seed
``S + i`` for pair ``i``.  For every end-to-end
metric it prints the medians of both sides, their relative change, the
parent's quartiles and how many pairs the change was lower in.  It exits
1 if any run fails or is not ``"correct": true``, and prints no summary.
"""

import argparse
import json
from pathlib import Path
import statistics
import subprocess
import sys

RUN_SECONDS = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text(encoding="utf-8")
)["run_seconds"]


def run_once(checkout, args, seed):
    """The result line of one benchmark run in ``checkout``, or ``None`` if it failed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", "0",
            "--size", args.size]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    return result if done.returncode == 0 and result.get("correct") is True else None


def quartiles(values):
    """Lower quartile, median and upper quartile (all three the value for one run)."""
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summary(runs):
    """One line per metric over the ``{side: [result, ...]}`` of the pairs."""
    lines = []
    for name, first in runs["parent"][0]["metrics"].items():
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        low, mid, high = quartiles(parent)
        median = statistics.median(change)
        lower = sum(c < p for p, c in zip(parent, change))
        lines.append(
            f"{name}: parent {mid:.6g} -> change {median:.6g} {first['unit']} "
            f"({(median / mid - 1) * 100 if mid else 0.0:+.1f} %), "
            f"parent quartiles {low:.6g}-{high:.6g}, change lower in {lower}/{len(parent)}"
        )
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(getattr(args, side), args, args.seed + i)
            if result is None:
                print(f"bench_pairs: pair {i}: the {side} run is not correct", file=sys.stderr)
                return 1
            runs[side].append(result)
    print(f"{args.workload}, {args.pairs} pairs, seeds {args.seed}-{args.seed + args.pairs - 1}")
    for line in summary(runs):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
