#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, one run per seed.

    python3 campaign_bench/spread.py --workload pwcet --seeds 5 [--first-seed 1]

Runs run.py --trace 0 once per seed and prints, per metric, the median
and the distance between the first and third quartile as a share of the
median (statistics.quantiles(values, n=4)).  A metric is steady when that
share stays well below its bound in BENCHMARK.json.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int,
                    default=json.loads((ROOT / "BENCHMARK.json").read_text())
                    ["run_seconds"])
    args = ap.parse_args()

    values = {}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        took = time.perf_counter() - t0
        result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        print(f"seed {seed}: exit {proc.returncode}, correct "
              f"{result['correct']}, {took:.1f} s, " + ", ".join(
                  f"{k} {m['value']:.4g}" for k, m in result["metrics"].items()),
              file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{args.workload:<15} {name:<14} median {med:<12.6g} "
              f"spread {(q3 - q1) / med:.4f}  ({len(vals)} runs)")


if __name__ == "__main__":
    main()
