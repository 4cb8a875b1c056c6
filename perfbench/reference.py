#!/usr/bin/env python3
"""Reference figures: run workloads over a range of seeds and summarize.

    python3 perfbench/reference.py --seeds 101-110 [--trace 1] [WORKLOAD ...]

Each run is one ``run.py`` process, as a harness would start it.  For
every metric the summary gives the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, followed by the share of failed operations and the machine
stamp of the last run.  The README's reference tables come from this.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("bounds-sweep", "gaussian-opt", "dense-oracle", "ppt-series")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--seeds", default="101-110", help="first-last, inclusive")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    for workload in args.workloads:
        values, shares, stamp = {}, set(), None
        for seed in range(first, last + 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", args.trace],
                capture_output=True, text=True, check=True, cwd=HERE.parent)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            stamp = json.loads(lines[0])["stamp"]
            if not result["correct"]:
                print(f"{workload} seed {seed}: outputs failed their checks", file=sys.stderr)
            shares.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"## {workload}, seeds {args.seeds}, trace {args.trace}")
        print("| metric | median | q1 | q3 | (q3-q1)/median |\n| --- | --- | --- | --- | --- |")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            print(f"| `{name}` | {med:.4g} | {q1:.4g} | {q3:.4g} | {spread:.3f} |")
        print(f"\nfailed share: {sorted(shares)}; stamp: {json.dumps(stamp)}\n")


if __name__ == "__main__":
    main()
