#!/usr/bin/env python3
"""Smoke test of the benchmark (registered as the benchmark_smoke ctest).

    smoke_test.py ECLDB_BENCH OUT_DIR

Runs every workload at 1/20 of its trace length, once untraced and once
traced, through run.py. Passes when every accounting check holds, the
modelled metrics of the two runs are identical, every metric named in
BENCHMARK.json is printed, and every span file validates against the
repository's Chrome-trace schema.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
import run  # noqa: E402  (shares BENCHMARK.json parsing)


def main():
    binary, out_dir = sys.argv[1], sys.argv[2]
    rc = subprocess.call([sys.executable, os.path.join(HERE, "run.py"),
                          "--bin", binary, "--reps", "1", "--trace",
                          "--scale", "0.05", "--out", out_dir])
    if rc != 0:
        return rc
    workloads, _, _ = run.load_spec()
    for w in workloads:
        rc = subprocess.call([sys.executable,
                              os.path.join(ROOT, "tools", "validate_trace.py"),
                              os.path.join(out_dir, "trace_%s.json" % w),
                              os.path.join(ROOT, "docs", "trace_schema.json")])
        if rc != 0:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
