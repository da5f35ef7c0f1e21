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

For each side it prints the median wall and CPU (user + sys) seconds and
peak resident set size with the quartiles, then how many pairs the change
won on wall time and the ratio of the medians.  Each run is reaped with
os.wait4, so its CPU and peak RSS are that run's own (with any worker
processes it reaped): RUSAGE_CHILDREN's ru_maxrss is the maximum over
every child so far, not a per-run value.  stderr of the runs is discarded.
"""

import os
import statistics
import subprocess
import sys
import tempfile
import time

PAIRS = 10


def timed_run(binary: str, args: list[str]) -> tuple[float, float, float,
                                                     bytes]:
    """Wall seconds, CPU seconds, peak RSS in MB and stdout of one run
    (exit 0 required)."""
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        proc = subprocess.Popen([binary, *args], stdout=out,
                                stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            sys.exit(f"{binary} exited {proc.returncode}")
        out.seek(0)
        stdout = out.read()
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, usage.ru_maxrss / 1024.0, stdout  # ru_maxrss is KiB


def spread(values: list[float], unit: str = "s", digits: int = 3) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (f"median {median:.{digits}f} {unit}  "
            f"(q1 {q1:.{digits}f}, q3 {q3:.{digits}f})")


def main() -> int:
    argv = sys.argv[1:]
    if "--" not in argv or argv.index("--") != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sides = {"parent": argv[0], "change": argv[1]}
    run_args = argv[3:]
    walls = {name: [] for name in sides}
    cpus = {name: [] for name in sides}
    rss = {name: [] for name in sides}
    reference = None
    for pair in range(PAIRS):
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for name in order:
            wall, cpu, peak, out = timed_run(sides[name], run_args)
            if reference is None:
                reference = out
            elif out != reference:
                print(f"FAIL: pair {pair}: {name} stdout differs from the "
                      "first parent run", file=sys.stderr)
                return 1
            walls[name].append(wall)
            cpus[name].append(cpu)
            rss[name].append(peak)

    for name in sides:
        print(f"{name:6}  wall {spread(walls[name])}   "
              f"cpu {spread(cpus[name])}   "
              f"rss {spread(rss[name], 'MB', 1)}")
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
