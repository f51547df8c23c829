"""Steadiness check: run each workload several times, one seed per run.

    python3 perfbench/steady.py [--workloads sweep grid ...] [--runs 10]
        [--first-seed 1] [--trace 0|1]

For every metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from ``BENCHMARK.json``.  It also prints each run's wall
time and share of failed operations, which must be the same in every
run.  Exits non-zero when a run fails its checks or the failed shares
differ.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        bench = json.load(stream)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=workloads,
                        choices=("sweep", "grid", "serve", "stream"))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    healthy = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        shares, walls = set(), []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            started = time.monotonic()
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            walls.append(time.monotonic() - started)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}")
                healthy = False
                continue
            report = json.loads(done.stdout.strip().splitlines()[-1])
            if not report["correct"]:
                print(f"{workload} seed {seed}: checks failed")
                print(done.stdout)
                healthy = False
            shares.add(Fraction(report["failed"], report["attempted"]))
            for name, metric in report["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"== {workload}: {args.runs} runs, wall s "
              + " ".join(f"{w:.1f}" for w in walls)
              + f", failed shares {sorted(str(s) for s in shares)}")
        healthy = healthy and len(shares) == 1
        for name, series in values.items():
            median = statistics.median(series)
            if len(series) > 1:
                q1, _q2, q3 = statistics.quantiles(series, n=4)
            else:
                q1 = q3 = series[0]
            spread = (q3 - q1) / abs(median) if median else float("nan")
            bound = bounds.get(name)
            verdict = ("" if bound is None else
                       f"  bound {bound:.2f}  spread/bound "
                       f"{spread / bound:.2f}")
            print(f"  {name:34s} median {median:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {spread:6.3f}{verdict}")
            print("    runs: " + " ".join(f"{v:.4g}" for v in series))
    return 0 if healthy else 1


if __name__ == "__main__":
    sys.exit(main())
