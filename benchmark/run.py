#!/usr/bin/env python3
"""Builds and runs the ecldb repository benchmark.

One workload, measured for a time budget (the form BENCHMARK.json names):

    python3 benchmark/run.py --workload spike_kv --seed 1 --seconds 30 --trace 0

runs the workload a fixed number of times, each repetition in its own child
process: the budget over the workload's cost per repetition on a busy host
(NOMINAL_REP_S), at least once. With --trace 1 every repetition is a pair,
one untraced and one traced run. It prints every metric as "workload metric
value unit" and, as its last stdout line, one JSON object: {"correct",
"attempted", "failed", "metrics"}. With --trace 0 the JSON metrics are
BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.

Every workload, a fixed number of repetitions:

    python3 benchmark/run.py [--reps 3] [--trace] [--seed 4242] [--out DIR]

prints every metric the same way and writes DIR/results.json (default
bench_results/benchmark/).

Both forms build bench_results/.bench_build/ecldb_bench from source first
(Release, see benchmark/CMakeLists.txt) unless --bin names a built binary,
and exit non-zero when a check fails: a child's accounting check, a modelled
metric that differs between repetitions (or between traced and untraced
runs), or a metric named in BENCHMARK.json that was not printed.

Unit "s" marks host time, and peak_rss_mb (the children's peak resident
sets, from wait4) is host-measured too: each is the median over the
repetitions. How many repetitions a run makes depends only on the workload
and the budget, never on how fast they ran. Every other metric is modelled
or counted and must repeat exactly. trace.overhead_frac is the traced
runs' median wall time over the untraced runs' median, minus one.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, "bench_results", ".bench_build")
# Host seconds of one repetition (set-ups, run and drain) on the 4-vCPU
# development VM while other tenants load its shared caches, rounded up;
# an idle host takes about 0.6 of this. Only used to turn a budget into a
# count, and large enough that a run stays inside its budget.
NOMINAL_REP_S = {"spike_kv": 15, "twitter_ssb": 13, "retry_storm_64m": 9,
                 "rack_anynode_45s": 20}
# A child that runs longer than this is killed (the run then fails).
CHILD_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds ecldb_bench; returns its path or None."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            return None
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "ecldb_bench", "-j", "4"]
    if subprocess.call(cmd, stdout=sys.stderr) != 0:
        return None
    return os.path.join(BUILD_DIR, "ecldb_bench")


def run_child(binary, workload, seed, traced, scale, out_dir):
    """Runs one repetition; returns a dict describing it."""
    cmd = [binary, "--workload=%s" % workload, "--seed=%d" % seed,
           "--scale=%r" % scale, "--out=%s" % out_dir]
    if traced:
        cmd.append("--trace")
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        stdout = proc.stdout.read()
        # wait4 rather than Popen.wait: it also returns the child's rusage.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
        proc.stdout.close()
    metrics = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == workload:
            metrics[parts[1]] = (parts[2], parts[3])
    # ru_maxrss is in KiB on Linux.
    metrics["peak_rss_mb"] = (repr(usage.ru_maxrss / 1024.0), "MiB")
    return {"traced": traced, "rc": proc.returncode, "metrics": metrics,
            "seconds": time.monotonic() - start}


def is_host(name, unit):
    """Host measurements vary run to run; everything else must repeat."""
    return unit == "s" or name == "peak_rss_mb"


def number(text):
    value = float(text)
    return int(value) if value.is_integer() else value


def summarize(workload, runs, names):
    """Aggregates repetitions of one workload.

    Returns (metrics, problems): metrics maps every name in `names` that could
    be computed to {"value", "unit"}; problems lists failed checks.
    """
    problems = []
    for r in runs:
        if r["rc"] != 0:
            problems.append("%s: a child exited with %d" % (workload, r["rc"]))
    untraced = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]

    # Modelled metrics must repeat exactly across every repetition.
    values = {}
    for r in runs:
        for name, (value, unit) in r["metrics"].items():
            values.setdefault(name, []).append((value, unit))
    for name, seen in sorted(values.items()):
        if not is_host(name, seen[0][1]) and len(set(v for v, _ in seen)) > 1:
            problems.append("%s: %s differs between repetitions: %s"
                            % (workload, name, sorted(set(v for v, _ in seen))))

    def host_value(group, name):
        vals = [float(r["metrics"][name][0]) for r in group if name in r["metrics"]]
        return statistics.median(vals) if vals else None

    metrics = {}
    for name in names:
        if name == "trace.overhead_frac":
            t = host_value(traced, "run_wall_s")
            u = host_value(untraced, "run_wall_s")
            if t is not None and u:
                metrics[name] = {"value": t / u - 1.0, "unit": "fraction"}
            continue
        if name not in values:
            continue
        unit = values[name][0][1]
        if is_host(name, unit):
            # Host measurements: per-layer self time exists in traced runs
            # only; every other host time is taken from untraced runs.
            group = untraced if any(name in r["metrics"] for r in untraced) else traced
            metrics[name] = {"value": host_value(group, name), "unit": unit}
        else:
            metrics[name] = {"value": number(values[name][0][0]), "unit": unit}
    for name in names:
        if name not in metrics:
            problems.append("%s: metric %s was not printed" % (workload, name))
    return metrics, problems


def report(workload, runs, required, end_to_end, per_layer):
    """Summarizes `runs` over `required` and every other BENCHMARK.json
    metric they printed, and prints each as "workload metric value unit".
    Returns (metrics, problems) as summarize does."""
    printed = set().union(*(r["metrics"] for r in runs))
    names = required + [n for n in end_to_end + per_layer
                        if n not in required and n in printed]
    metrics, problems = summarize(workload, runs, names)
    for name, m in metrics.items():
        print("%s %s %r %s" % (workload, name, m["value"], m["unit"]), flush=True)
    return metrics, problems


def outcome(runs):
    """(attempted, failed): client queries submitted to the engine, and those
    of them that did not complete, summed over the repetitions."""
    attempted = failed = 0
    for r in runs:
        m = r["metrics"]
        if "client_queries" in m and "engine.completed" in m:
            attempted += int(m["client_queries"][0])
            failed += int(m["client_queries"][0]) - int(m["engine.completed"][0])
    return attempted, failed


def load_spec():
    """(workloads, end_to_end, per_layer) names from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return tuple([m["name"] for m in spec[key]]
                 for key in ("workloads", "end_to_end", "per_layer"))


def timed_mode(args, binary, end_to_end, per_layer):
    """One workload, as many repetitions as --seconds buys at the nominal
    cost; prints the contract's JSON line last."""
    per_rep = NOMINAL_REP_S.get(args.workload, args.seconds)
    per_rep *= 2 if args.trace == 1 else 1
    reps = max(1, int(args.seconds // per_rep))
    runs = []
    for i in range(reps * (2 if args.trace == 1 else 1)):
        traced = args.trace == 1 and i % 2 == 1
        runs.append(run_child(binary, args.workload, args.seed, traced,
                              args.scale, args.out))
        if runs[-1]["rc"] != 0:
            break
    group = per_layer if args.trace == 1 else end_to_end
    metrics, problems = report(args.workload, runs, group, end_to_end, per_layer)
    for p in problems:
        log(p)
    attempted, failed = outcome(runs)
    print(json.dumps({"correct": not problems, "attempted": max(attempted, 1),
                      "failed": failed,
                      "metrics": {n: metrics[n] for n in group if n in metrics}}))
    return 0 if not problems else 1


def battery_mode(args, binary, workloads, end_to_end, per_layer):
    """Every workload, --reps untraced (+ one traced) repetitions each."""
    os.makedirs(args.out, exist_ok=True)
    workloads = [args.workload] if args.workload else workloads
    results = {}
    all_problems = []
    for w in workloads:
        runs = [run_child(binary, w, args.seed, False, args.scale, args.out)
                for _ in range(args.reps)]
        if args.trace:
            runs.append(run_child(binary, w, args.seed, True, args.scale, args.out))
        required = end_to_end + (per_layer if args.trace else [])
        results[w], problems = report(w, runs, required, end_to_end, per_layer)
        all_problems += problems
    with open(os.path.join(args.out, "results.json"), "w") as f:
        json.dump({"seed": args.seed, "scale": args.scale, "reps": args.reps,
                   "results": results}, f, indent=1, sort_keys=True)
    for p in all_problems:
        log(p)
    return 0 if not all_problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=4242)
    parser.add_argument("--seconds", type=float,
                        help="time budget; selects the single-workload form")
    parser.add_argument("--trace", type=int, choices=[0, 1], nargs="?", const=1,
                        default=0)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="trace length factor (the smoke test uses 0.05)")
    parser.add_argument("--out", default=os.path.join(ROOT, "bench_results", "benchmark"),
                        help="directory for traces and results.json")
    parser.add_argument("--bin", help="use this ecldb_bench instead of building")
    args = parser.parse_args()

    workloads, end_to_end, per_layer = load_spec()
    binary = args.bin or build()
    if binary is None:
        log("build failed")
        return 2
    if args.seconds is not None:
        if args.workload is None:
            parser.error("--seconds needs --workload")
        return timed_mode(args, binary, end_to_end, per_layer)
    return battery_mode(args, binary, workloads, end_to_end, per_layer)


if __name__ == "__main__":
    sys.exit(main())
