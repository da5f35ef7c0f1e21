#!/usr/bin/env python3
"""The benchmark's own test: its deterministic counters are pinned.

    python3 campaign_bench/test_counters.py [--workload W ...] [--update]

For each workload, replays the campaign at the golden seed three times -
twice on 4 threads and once on 1 - and asserts that every deterministic
counter (cache accesses and hits, interpreter steps, shard samples, every
*.calls and the runner byte counts) and every replayed output value repeat
exactly, and that the counters equal the values pinned in
pinned_counters.json.  A change that moves one of them changed what the
campaign computes, not how fast.  --update rewrites the pinned file from
the first replay.  The 1-thread pwcet replay alone takes about a minute.
"""
import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark itself)

PINNED = Path(__file__).resolve().parent / "pinned_counters.json"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    ap.add_argument("--update", action="store_true")
    args = ap.parse_args()
    workloads = args.workload or list(run.WORKLOADS)

    run.build()
    pinned = json.loads(PINNED.read_text()) if PINNED.exists() else {}
    failures = []
    for name in workloads:
        replays = [(threads, run.trace_replay(name, run.GOLDEN_SEED, threads))
                   for threads in (4, 4, 1)]
        if any(trace is None for _, trace in replays):
            failures.append(f"{name}: a replay failed")
            continue
        first = replays[0][1]
        for threads, trace in replays[1:]:
            for key in ("counters", "check"):
                if trace[key] != first[key]:
                    diff = sorted(k for k in first[key]
                                  if trace[key].get(k) != first[key][k])
                    failures.append(f"{name}: {key} differ on {threads} "
                                    f"thread(s): {diff}")
        if args.update:
            pinned[name] = first["counters"]
        elif first["counters"] != pinned.get(name):
            failures.append(f"{name}: counters differ from {PINNED.name}: "
                            f"{first['counters']}")
        print(f"{name}: {len(first['counters'])} counters checked",
              file=sys.stderr)

    if args.update:
        PINNED.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print("FAILED" if failures else "OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
