#!/usr/bin/env python3
"""Compares the benchmark between two checkouts, pair by pair (stdlib only).

    python3 benchmark/compare.py --parent DIR --change DIR [--pairs 10]
    python3 benchmark/compare.py --self-check [--pairs 10]

Each pair runs `python3 benchmark/run.py --workload W --seed S --seconds N
--trace 0` once in each checkout, with the same seed on both sides; even
pairs run the parent first, odd pairs the change. --self-check uses this
checkout for both sides. Directions, host-metric bounds and run_seconds
come from the parent's BENCHMARK.json.

Host metrics (BENCHMARK.json's end-to-end metrics not in PAIR_BOUNDS) vary
from run to run, so they are judged over the pairs with the BENCHMARK.json
bound:

  gain        the change is better in at least 9 of 10 pairs (ties count
              for neither side) and the medians differ by more than the
              parent's interquartile range;
  unresolved  the spread (interquartile range over median) of either side
              is wider than the metric's bound, and not every change run
              reads better than every parent run;
  regressed   the change's median is worse than the parent's by more than
              the bound (a share of the parent's median);
  unchanged   otherwise.

Paired metrics (PAIR_BOUNDS) are judged pair by pair. The modelled ones
repeat exactly for one seed and binary, so within a pair they differ only
because of the code. run_cpu_s does not repeat: other tenants' use of the
shared caches moves it by up to about 1.8x over minutes, too much for any
bound on medians taken minutes apart (so BENCHMARK.json lists it per
layer), but the two sides of a pair run back to back and mostly share the
host's state. Even so, a busy host spreads its per-pair changes by up to 32 %
and moves their median by up to 10 %, so its per-pair bound is 25 %, and
on such a host it can read "unresolved". A host drifting through the pairs
can also favour one side in 8 of 10 pairs, so a run_cpu_s gain needs the
host metrics' gap of medians as well. Each pair gives one change (change
minus parent, relative to the parent or absolute, positive when worse),
and over the pairs:

  gain        the change is better in at least 9 of 10 pairs (run_cpu_s:
              and the medians differ by more than the parent's
              interquartile range);
  unresolved  the changes' interquartile range is wider than the bound and
              they do not all point the same way (the change helps some
              inputs and hurts others);
  regressed   the median change is worse than the bound;
  unchanged   otherwise.

BENCHMARK.json's bounds on modelled metrics are wider: they hold medians
taken over different seeds, and each seed is a different input.

Failed operations are checked on their own: a workload where the change
fails more operations (the runs' "failed" over "attempted") than the
parent reports no gain. Exit status: 0 when nothing regressed, every run
was correct and, with --self-check, every modelled metric is identical
pair by pair and every verdict is "unchanged" (for run_cpu_s, which has
no bound in BENCHMARK.json, "unresolved" passes too: it is not a false
gain or regression).
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Per-pair bounds: (bound, relative?, repeats exactly?). On the modelled
# metrics, relative bounds only absorb floating-point reassociation; the
# fractions are absolute because they can be 0.
PAIR_BOUNDS = {
    "run_cpu_s": (0.25, True, False),
    "energy_j": (0.005, True, True),
    "j_per_kquery": (0.005, True, True),
    "latency_p50_ms": (0.01, True, True),
    "latency_p99_ms": (0.01, True, True),
    "latency_p999_ms": (0.01, True, True),
    "served_frac": (0.001, False, True),
    "slo_miss_frac": (0.001, False, True),
    "fail_frac": (0.001, False, True),
}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    q1, q3 = quartiles(values)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else math.inf


def run_side(checkout, workload, seed, seconds):
    """Runs one side of a pair: the JSON result, with "all" added, every
    metric the run printed as a "workload metric value unit" line."""
    cmd = [sys.executable, os.path.join(checkout, "benchmark", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    result["all"] = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[0] == workload:
            result["all"][parts[1]] = float(parts[2])
    return result


def host_verdict(parent, change, better, bound):
    n = len(parent)
    pm, cm = statistics.median(parent), statistics.median(change)
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    q1, q3 = quartiles(parent)
    if wins >= math.ceil(0.9 * n) and sign * (cm - pm) < 0 and abs(cm - pm) > q3 - q1:
        return "gain", wins
    all_better = (max(change) < min(parent)) if better == "lower" else (
        min(change) > max(parent))
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved", wins
    if pm and sign * (cm - pm) / abs(pm) > bound:
        return "regressed", wins
    return "unchanged", wins


def pair_changes(parent, change, better, relative):
    """Per pair, how much worse the change is (negative: better)."""
    sign = 1.0 if better == "lower" else -1.0
    changes = []
    for p, c in zip(parent, change):
        d = sign * (c - p)
        if relative and p:
            d /= abs(p)
        elif relative and d:
            d = math.copysign(math.inf, d)  # away from 0: no relative size
        changes.append(d)
    return changes


def pair_verdict(changes, bound, gap_ok):
    wins = sum(1 for d in changes if d < 0)
    if wins >= math.ceil(0.9 * len(changes)) and gap_ok:
        return "gain", wins
    q1, q3 = quartiles(changes)
    one_way = all(d <= 0 for d in changes) or all(d >= 0 for d in changes)
    if q3 - q1 > bound and not one_way:
        return "unresolved", wins
    if statistics.median(changes) > bound:
        return "regressed", wins
    return "unchanged", wins


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--change", help="checkout of the change")
    parser.add_argument("--self-check", action="store_true",
                        help="compare this checkout with itself")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="first pair's seed")
    parser.add_argument("--workload", action="append",
                        help="restrict to this workload (repeatable)")
    args = parser.parse_args()
    if args.self_check:
        parent = change = ROOT
    elif args.parent and args.change:
        parent, change = os.path.abspath(args.parent), os.path.abspath(args.change)
    else:
        parser.error("give --parent and --change, or --self-check")
    if args.pairs < 10:
        print("note: fewer than 10 pairs cannot support a gain claim", file=sys.stderr)

    with open(os.path.join(parent, "BENCHMARK.json")) as f:
        spec = json.load(f)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    host = [m for m in spec["end_to_end"] if m["name"] not in PAIR_BOUNDS]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for w in workloads:
        sides = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = [("parent", parent), ("change", change)]
            if i % 2:
                order.reverse()
            for name, checkout in order:
                result = run_side(checkout, w, args.seed + i, spec["run_seconds"])
                if result is None or not result["correct"]:
                    print("%s pair %d: %s run failed or was incorrect" % (w, i, name))
                    ok = False
                else:
                    sides[name].append(result)
        if len(sides["parent"]) != args.pairs or len(sides["change"]) != args.pairs:
            continue

        def fail_rate(runs):
            return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))

        pf, cf = fail_rate(sides["parent"]), fail_rate(sides["change"])
        more_failures = cf > pf
        print("\n%s  (%d pairs; failed operations: parent %.6f, change %.6f%s)"
              % (w, args.pairs, pf, cf, "  MORE FAILURES" if more_failures else ""))
        print("  %-16s %-34s %-34s %5s  %s" % ("metric", "parent median [q1, q3]",
                                              "change median [q1, q3]", "wins", "verdict"))
        fmt = lambda xs: "%.6g [%.6g, %.6g]" % ((statistics.median(xs),) + quartiles(xs))
        rows = [(m["name"], m["bound"], None, False) for m in host] + [
            (name, bound, relative, exact)
            for name, (bound, relative, exact) in PAIR_BOUNDS.items()]
        for name, bound, relative, exact in rows:
            p = [r["all"][name] for r in sides["parent"]]
            c = [r["all"][name] for r in sides["change"]]
            if relative is None:
                v, wins = host_verdict(p, c, better[name], bound)
                note = ""
            else:
                changes = pair_changes(p, c, better[name], relative)
                pq1, pq3 = quartiles(p)
                gap_ok = exact or abs(statistics.median(c)
                                      - statistics.median(p)) > pq3 - pq1
                v, wins = pair_verdict(changes, bound, gap_ok)
                q1, q3 = quartiles(changes)
                note = "  median pair change %+.4g [%+.4g, %+.4g]%s" % (
                    statistics.median(changes) or 0.0, q1 or 0.0, q3 or 0.0,
                    "" if relative else " (abs)")
                if args.self_check and exact and any(changes):
                    v += ", NOT IDENTICAL"
            if v == "gain" and more_failures:
                v = "gain withheld: more failures"
            passing = ("unchanged",) if relative is None or exact else (
                "unchanged", "unresolved")
            if v == "regressed" or (args.self_check and v not in passing):
                ok = False
            print("  %-16s %-34s %-34s %2d/%-2d  %s%s" % (name, fmt(p), fmt(c), wins,
                                                         args.pairs, v, note))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
