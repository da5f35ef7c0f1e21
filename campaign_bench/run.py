#!/usr/bin/env python3
"""Campaign benchmark: time, CPU and memory of real tsc_run campaigns.

Run from the repository root:

    python3 campaign_bench/run.py --workload attack --seed 2018 --seconds 15 --trace 0

--trace 0 builds tsc_run, runs the workload's campaign as a subprocess
until --seconds have been measured, times each run from outside the
process (wall clock, and user+sys and peak RSS from the reaped child's
rusage), byte-checks every stdout against a reference, and prints the
end-to-end metrics.  --trace 1 instead replays the workload in-process
through campaign_trace and prints the per-layer metrics.  The last line of
stdout is always one JSON object: {"correct", "attempted", "failed",
"metrics"}.  See README.md in this directory.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
RUNS = BUILD / "runs"
TSC_RUN = BUILD / "tscache" / "tsc_run"
TRACE = BUILD / "campaign_trace"

GOLDEN_SEED = 2018
WORKERS = 4
PLATFORMS = 14  # 7 placement policies x {unpartitioned, partitioned}
CAMPAIGN_TIMEOUT_S = 170

ATTACK = {
    "experiment": "attack_matrix",
    "samples": 1200,
    "shard_size": 400,
    "golden": "attack_matrix_s1200_ss400.json",
    # Prime+Probe and Evict+Time encryptions over every platform.
    "work": 2 * PLATFORMS * 1200,
    "reference_workers": 1,
}
WORKLOADS = {
    "attack": dict(ATTACK, durable=False),
    "attack_durable": dict(ATTACK, durable=True),
    "pwcet": {
        "experiment": "pwcet_matrix",
        "samples": 240,
        "shard_size": 80,
        "golden": "pwcet_matrix_s240_ss80.json",
        # Timed kernel runs (5 kernels) plus the leakage half's encryptions
        # (2 x runs per platform).
        "work": PLATFORMS * 5 * 240 + PLATFORMS * 2 * 240,
        # A 1-worker pwcet reference takes over a minute; 3 workers still
        # differ from the measured 4 and fit the run's time budget.
        "reference_workers": 3,
        "durable": False,
    },
}

def log(msg):
    print(f"[campaign_bench] {msg}", file=sys.stderr, flush=True)


def die(msg):
    log(f"error: {msg}")
    sys.exit(1)


def declared_metrics(kind):
    """Name -> unit of the "end_to_end" or "per_layer" metrics, in the
    order BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def build():
    """Configure once, then (re)build tsc_run and campaign_trace."""
    for needed in ("BENCHMARK.json", "CMakeLists.txt", "src/runner/tsc_run.cc",
                   "tests/golden"):
        if not (ROOT / needed).exists():
            die(f"{needed} not found under {ROOT}: run from a full checkout")
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(WORKERS),
                  "--target", "tsc_run", "campaign_trace"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(cmd))
    RUNS.mkdir(parents=True, exist_ok=True)


def campaign_cmd(w, seed, workers, checkpoint=None):
    cmd = [str(TSC_RUN), "--experiment", w["experiment"],
           "--samples", str(w["samples"]), "--shard-size", str(w["shard_size"]),
           "--seed", str(seed), "--shards", str(workers), "--json"]
    if checkpoint is not None:
        cmd += ["--dispatch", str(WORKERS), "--checkpoint", str(checkpoint)]
    return cmd


def remove_checkpoints(path):
    for p in path.parent.glob(path.name + "*"):
        p.unlink()


def run_campaign(cmd, checkpoint=None):
    """Run one campaign; time it from outside and reap it with wait4.

    The rusage of the reaped child covers it and every descendant it
    reaped (the --dispatch workers): ru_utime + ru_stime is their CPU
    time and ru_maxrss the largest resident set among them.
    """
    if checkpoint is not None:
        remove_checkpoints(checkpoint)  # a fresh file: nothing to resume
    out_path = RUNS / f"stdout_{os.getpid()}.json"
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.DEVNULL,
                                cwd=RUNS)
        timer = threading.Timer(CAMPAIGN_TIMEOUT_S, proc.kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_bytes()
    out_path.unlink()
    if checkpoint is not None:
        remove_checkpoints(checkpoint)
    return {
        "code": proc.returncode,
        "stdout": stdout,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB
    }


def reference_bytes(w, seed):
    """The committed golden at the golden seed, else a plain run's stdout.

    Returns (bytes or None, runs attempted, runs failed).
    """
    if seed == GOLDEN_SEED:
        return (ROOT / "tests" / "golden" / w["golden"]).read_bytes(), 0, 0
    ref = run_campaign(campaign_cmd(w, seed, w["reference_workers"]))
    if ref["code"] != 0:
        log(f"reference run exited {ref['code']}")
        return None, 1, 1
    return ref["stdout"], 1, 0


def run_tool(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=RUNS,
                          timeout=CAMPAIGN_TIMEOUT_S)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def measure_setup(name, seed):
    doc = run_tool([str(TRACE), "setup", "--workload", name,
                    "--seed", str(seed)])
    return None if doc is None else doc["setup_s"]


def end_to_end(name, seed, seconds):
    w = WORKLOADS[name]
    reference, attempted, failed = reference_bytes(w, seed)
    setup_s = measure_setup(name, seed)
    if setup_s is None:
        log("campaign_trace setup failed")
        attempted += 1
        failed += 1

    checkpoint = RUNS / f"checkpoint_{os.getpid()}.bin" if w["durable"] else None
    runs = []
    start = time.perf_counter()
    while True:
        r = run_campaign(campaign_cmd(w, seed, WORKERS, checkpoint), checkpoint)
        ok = r["code"] == 0 and r["stdout"] == reference
        if not ok:
            log(f"run {len(runs) + 1}: exit {r['code']}, stdout "
                f"{'matches' if r['stdout'] == reference else 'DIFFERS from'}"
                " the reference")
        attempted += 1
        failed += 0 if ok else 1
        runs.append(r)
        if time.perf_counter() - start >= seconds:
            break

    wall = statistics.median(r["wall_s"] for r in runs)
    values = {
        "wall_s": wall,
        "cpu_s": statistics.median(r["cpu_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "samples_per_s": w["work"] / wall,
        "setup_s": setup_s if setup_s is not None else 0.0,
    }
    units = declared_metrics("end_to_end")
    print(f"{name}: {len(runs)} campaign runs at seed {seed}, "
          f"{WORKERS} workers (medians)")
    for key, unit in units.items():
        print(f"  {key:<14} {values[key]:>14.6g} {unit}")
    print(f"  {'error_rate':<14} {failed / attempted:>14.6g} "
          f"({failed} failed of {attempted} runs)")
    return attempted, failed, {k: {"value": values[k], "unit": u}
                               for k, u in units.items()}


def trace_replay(name, seed, threads):
    """Run campaign_trace's in-process replay; None if it failed."""
    w = WORKLOADS[name]
    cmd = [str(TRACE), "trace", "--workload", name, "--seed", str(seed),
           "--threads", str(threads),
           "--samples", str(w["samples"]), "--shard-size", str(w["shard_size"])]
    checkpoint = RUNS / f"trace_checkpoint_{os.getpid()}.bin"
    if w["durable"]:
        cmd += ["--checkpoint", str(checkpoint)]
    try:
        return run_tool(cmd)
    finally:
        remove_checkpoints(checkpoint)


def campaign_values(name, doc):
    """The campaign-JSON values the replay must reproduce exactly."""
    res = doc["results"]
    if name == "pwcet":
        return {
            "cells": [{k: c.get(k) for k in
                       ("runs", "mean_cycles", "max_cycles", "verdict")}
                      for c in res["cells"]],
            "tradeoff": [{"prime_probe_mean_true_rank":
                          r["prime_probe_mean_true_rank"]}
                         for r in res["tradeoff"]],
        }
    return {"cells": [
        {attack: {k: c[attack][k] for k in ("mean_true_rank", "byte_true_ranks")}
         for attack in ("prime_probe", "evict_time")}
        for c in res["cells"]]}


def self_check(name, campaign_stdout, check):
    expected = campaign_values(name, json.loads(campaign_stdout))
    for section, rows in expected.items():
        got = check.get(section, [])
        if len(got) != len(rows):
            log(f"SELF-CHECK FAILED: {section} has {len(got)} rows, "
                f"campaign has {len(rows)}")
            return False
        for i, (want, have) in enumerate(zip(rows, got)):
            if want != have:
                log(f"SELF-CHECK FAILED: {section}[{i}]: campaign {want} "
                    f"!= replay {have}")
                return False
    return True


def per_layer(name, seed):
    """Untraced campaign(s) for the baselines, then the traced replay."""
    w = WORKLOADS[name]
    attempted = failed = 0
    golden = (ROOT / "tests" / "golden" / w["golden"]).read_bytes()

    def campaign(durable):
        nonlocal attempted, failed
        checkpoint = RUNS / f"checkpoint_{os.getpid()}.bin" if durable else None
        r = run_campaign(campaign_cmd(w, seed, WORKERS, checkpoint), checkpoint)
        attempted += 1
        if r["code"] != 0 or (seed == GOLDEN_SEED and r["stdout"] != golden):
            log(f"campaign exited {r['code']} or differs from the golden")
            failed += 1
        return r

    untraced = campaign(w["durable"])
    plain = campaign(False) if w["durable"] else untraced
    if plain["stdout"] != untraced["stdout"]:
        log("durable and plain campaigns disagree")
        failed += 1

    attempted += 1
    trace = trace_replay(name, seed, WORKERS)
    if trace is None:
        log("campaign_trace replay failed")
        failed += 1
        return attempted, failed, {}
    if untraced["code"] != 0 or not self_check(name, untraced["stdout"],
                                               trace["check"]):
        failed += 1

    spans, counters = trace["spans"], trace["counters"]
    values = dict(spans)
    values.update(counters)
    file_bytes = counters["runner.checkpoint.file_bytes"]
    values["runner.checkpoint.rewrite_ratio"] = (
        counters["runner.checkpoint.bytes"] / file_bytes if file_bytes else 0.0)
    values["runner.unattributed_s"] = (
        untraced["wall_s"] - plain["wall_s"] - spans["runner.codec.s"]
        - spans["runner.checkpoint.s"] - spans["runner.frame.s"]
        if w["durable"] else 0.0)
    values["trace.overhead_s"] = trace["total_s"] - untraced["wall_s"]

    units = declared_metrics("per_layer")
    print(f"{name}: traced replay at seed {seed}, {WORKERS} threads "
          f"(untraced wall_s {untraced['wall_s']:.3f} s)")
    for key, unit in units.items():
        print(f"  {key:<34} {values[key]:>16.6g} {unit}")
    return attempted, failed, {k: {"value": values[k], "unit": u}
                               for k, u in units.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=GOLDEN_SEED)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        die("--seed must be non-negative")

    build()
    if args.trace:
        attempted, failed, metrics = per_layer(args.workload, args.seed)
    else:
        attempted, failed, metrics = end_to_end(args.workload, args.seed,
                                                args.seconds)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
