#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/test_bench.py

Run from the root of a checkout. Short mode: every workload in
BENCHMARK.json runs for one second untraced and traced, and each run must
be correct and emit every metric BENCHMARK.json names, with its unit. The
other tests check that the timing shims are pass-through (byte-identical
DOT on the Table-I cases), that one seed reproduces the sim record count
and the ingest record count exactly, and that the benchmark refuses to run
in a directory holding only BENCHMARK.json and the benchmark's files.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, seed=1, seconds=1):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if out.returncode != 0:
        raise AssertionError("%s trace %d exited %d:\n%s" %
                             (workload, trace, out.returncode, out.stderr))
    return json.loads(out.stdout.splitlines()[-1])


class ShortMode(unittest.TestCase):
    def check(self, workload, trace, wanted):
        res = run(workload, trace)
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"], res)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        self.assertEqual(set(res["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if trace == 0:
                self.assertGreater(got["value"], 0, m["name"])
        return res

    def test_every_metric_with_its_unit(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], 0, SPEC["end_to_end"])
                traced = self.check(w["name"], 1, SPEC["per_layer"])
                self.assertGreater(
                    traced["metrics"]["bench.trace_overhead"]["value"], 0)


class Reproducible(unittest.TestCase):
    def test_same_seed_same_record_counts(self):
        for workload, metric in (("acmeair-sim",
                                  "ag.pipeline.records_per_req"),
                                 ("ingest-v4", "ag.ingest.records")):
            with self.subTest(workload=workload):
                a = run(workload, 1, seed=7)["metrics"][metric]["value"]
                b = run(workload, 1, seed=7)["metrics"][metric]["value"]
                self.assertGreater(a, 0)
                self.assertEqual(a, b)


class Shims(unittest.TestCase):
    def test_table1_dot_identical_through_shims(self):
        build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
        run("acmeair-sim", 0)  # makes sure the driver is built
        out = subprocess.run([os.path.join(build, "agbench"),
                              "--check-shims"], cwd=ROOT,
                             stdout=subprocess.PIPE, text=True)
        self.assertEqual(out.returncode, 0, out.stdout)


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_repository(self):
        bare = os.path.join(ROOT, ".bench_out", "bare-%d" % os.getpid())
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for p in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            out = subprocess.run(
                SPEC["command"] + ["--workload", "acmeair-sim", "--seed", "1",
                                   "--seconds", "1", "--trace", "0"],
                cwd=bare, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=180)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"metrics"', out.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
