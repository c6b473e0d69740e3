#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload acmeair-sim --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The AsyncG libraries and the driver are
compiled into $CARGO_TARGET_DIR (default .bench_build) with the build file
in this directory; build output goes to stderr. The driver's progress lines
and, as the last line of stdout, its result object are passed through.
Per-run files go under .bench_out/<workload>-s<seed>-t<trace>-p<pid>/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("acmeair-sim", "acmeair-wire", "ingest-v4")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(build_dir, env):
    """Configures (once) and builds the driver; returns its path or None."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps.append(["cmake", "--build", build_dir, "--target", "agbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           env=env) != 0:
            return None
    return os.path.join(build_dir, "agbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    env = dict(os.environ)
    # Keep compiler and runtime temporaries inside the checkout.
    env["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    binary = build(build_dir, env)
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out", os.path.join(ROOT, ".bench_out")]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict) or \
            set(result) != RESULT_KEYS:
        sys.stderr.write(proc.stdout)
        print("run.py: driver exited %d without a result" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
