#!/usr/bin/env python3
"""End-to-end wall-clock benchmark of the abcast production stack.

Builds e2e_bench from the repository's sources (into .bench_build/ at the
repository root) and runs one workload as a series of short repetitions,
each on a fresh cluster in its own e2e_bench process. Prints, as the last
line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Each end-to-end metric is its better quartile over the repetitions, every
other metric its median (see combine()). With --trace 0 the metrics are
BENCHMARK.json's end_to_end list, measured with no tracing wrappers
installed. With --trace 1 every repetition runs twice on the same schedule,
untraced and then traced, and the benchmark reports BENCHMARK.json's
per_layer list: the traced runs' layer figures plus their own
cpu_us_per_msg and commit_p50_ms beside the untraced ones (the tracing
overhead).

Usage: python3 e2ebench/run.py --workload kv-spread --seed 1 --seconds 30 --trace 0
Exit status: 0 when the run is correct, 1 when the correctness check fails
or a run breaks, 2 when the sources or the build are missing.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
RUN_ROOT = os.path.join(ROOT, ".bench_run")
BINARY = os.path.join(BUILD_DIR, "e2e_bench")

# Seconds of load per repetition; --seconds sets how many repetitions run.
# Latency on this stack grows with the cluster's history (README.md), so a
# long run on one cluster would measure its own length. A kv-crash
# repetition must hold the crash, the downtime and the catch-up.
REP_SECONDS = {"kv-spread": 1.0, "kv-leader": 1.0, "kv-crash": 2.5}
# All repetitions of one run end within this many seconds after the build.
RUN_DEADLINE_S = 165


def fail(code, why):
    print(f"run.py: {why}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(2, "abcast sources (src/) not found next to e2ebench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail(2, "cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "e2e_bench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail(2, "build failed")


def run_once(workload, seed, rep, seconds, trace, deadline):
    """Runs one repetition in its own e2e_bench process; returns its JSON."""
    what = f"{workload} repetition {rep} (trace {trace})"
    run_dir = os.path.join(RUN_ROOT, f"{workload}-{seed}-{rep}-{trace}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--rep", str(rep), "--seconds", str(seconds),
           "--trace", str(trace), "--dir", run_dir]
    try:
        # On timeout, subprocess.run kills the process and waits for it.
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(1, f"{what} did not finish before the run's deadline")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(RUN_ROOT)
        except OSError:
            pass
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail(1, f"{what} exited {proc.returncode} without a result")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    return result


def combine(results, better):
    """Each metric over the repetitions' results: for a metric named in
    `better` (name -> "lower" or "higher"), its better quartile; else its
    median.

    A slow spell of a shared host only makes the repetitions it covers
    worse, and a loaded host makes this stack's occasional 100 ms stalls
    more frequent. The better quartile ignores both while they cover fewer
    than three quarters of a run's repetitions. A change to the program
    moves every repetition, and so the quartile with them.
    """
    out = {}
    for name, m in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        if name in better and len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            value = q1 if better[name] == "lower" else q3
        else:
            value = statistics.median(values)
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    build()

    deadline = time.monotonic() + RUN_DEADLINE_S
    rep_seconds = REP_SECONDS[args.workload]
    n_reps = max(2, round(args.seconds / rep_seconds))
    plain, traced = [], []
    for rep in range(n_reps):
        plain.append(run_once(args.workload, args.seed, rep, rep_seconds, 0,
                              deadline))
        if args.trace:
            traced.append(run_once(args.workload, args.seed, rep, rep_seconds,
                                   1, deadline))
    runs = plain + traced
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    measured = combine(traced or plain, better)
    if args.trace:
        untraced = combine(plain, better)
        for name in ("cpu_us_per_msg", "commit_p50_ms"):
            traced_v, untraced_v = measured[name]["value"], untraced[name]["value"]
            unit = measured[name]["unit"]
            measured[f"trace.{name}"] = {"value": traced_v, "unit": unit}
            measured[f"trace.untraced_{name}"] = {"value": untraced_v, "unit": unit}
            measured[f"trace.{name}_overhead_frac"] = {
                "value": traced_v / untraced_v - 1 if untraced_v else 0.0,
                "unit": "frac"}
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        fail(1, f"metrics not measured: {', '.join(missing)}")
    for name, m in sorted(measured.items()):
        print(f"run {name:<39} {m['value']:16.6f} {m['unit']}")
    result = {
        "correct": all(r["correct"] and r["exit"] == 0 for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {m["name"]: measured[m["name"]] for m in wanted},
    }
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
