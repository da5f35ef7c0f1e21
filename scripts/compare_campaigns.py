#!/usr/bin/env python3
"""A/B-time one tsc_run campaign on two binaries, in alternating pairs.

Usage:
    compare_campaigns.py PARENT_BIN CHANGE_BIN -- TSC_RUN_ARGS...

Example:
    compare_campaigns.py old/tsc_run new/tsc_run -- \\
        --experiment pwcet_matrix --samples 240 --shard-size 80 --shards 4 --json

Runs the same arguments on both binaries PAIRS (10) times each, alternating
which side goes first in each pair (parent-change, then change-parent, ...)
so a host that drifts within a sitting drifts on both sides alike.  Every
run's stdout must be byte-identical to the first parent run's: the campaigns
are deterministic, so a change that claims speed must print the same bytes.
Any difference fails the comparison (exit 1).

For each side it prints the median wall and CPU (user + sys) seconds with
the quartiles, then how many pairs the change won on wall time and the
ratio of the medians.  stderr of the runs is discarded.
"""

import resource
import statistics
import subprocess
import sys
import time

PAIRS = 10


def timed_run(binary: str, args: list[str]) -> tuple[float, float, bytes]:
    """Wall seconds, CPU seconds and stdout of one run (exit 0 required)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.run([binary, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, check=False)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        sys.exit(f"{binary} exited {proc.returncode}")
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return wall, cpu, proc.stdout


def spread(values: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"median {median:.3f} s  (q1 {q1:.3f}, q3 {q3:.3f})"


def main() -> int:
    argv = sys.argv[1:]
    if "--" not in argv or argv.index("--") != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sides = {"parent": argv[0], "change": argv[1]}
    run_args = argv[3:]
    walls = {name: [] for name in sides}
    cpus = {name: [] for name in sides}
    reference = None
    for pair in range(PAIRS):
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for name in order:
            wall, cpu, out = timed_run(sides[name], run_args)
            if reference is None:
                reference = out
            elif out != reference:
                print(f"FAIL: pair {pair}: {name} stdout differs from the "
                      "first parent run", file=sys.stderr)
                return 1
            walls[name].append(wall)
            cpus[name].append(cpu)

    for name in sides:
        print(f"{name:6}  wall {spread(walls[name])}   "
              f"cpu {spread(cpus[name])}")
    wins = sum(c < p for p, c in zip(walls["parent"], walls["change"]))
    ratio = statistics.median(walls["change"]) / statistics.median(
        walls["parent"])
    print(f"change won {wins} of {PAIRS} pairs on wall time; "
          f"median ratio {ratio:.3f}x")
    print(f"all {2 * PAIRS} stdouts byte-identical "
          f"({len(reference)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
