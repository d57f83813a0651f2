#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny sizes.

Run from the root of a checkout:

    python3 perfbench/test_smoke.py

Checks, for all four workloads, that the end-to-end (--trace 0) and
traced (--trace 1) runs pass their output checks and report every metric
BENCHMARK.json names, finite and with its unit, and that the simulated
cycle count of the data-oblivious workloads does not depend on the seed.
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cordic", "reduce_cold", "sort", "io_roundtrip")
DATA_OBLIVIOUS = ("cordic", "reduce_cold", "sort")


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit code "
                             f"{out.returncode}\n{out.stdout}{out.stderr}")
    return json.loads(out.stdout.rstrip("\n").split("\n")[-1])


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check(self, result, kind):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in self.spec[kind]}
        self.assertEqual(set(result["metrics"]), set(want))
        for name, m in result["metrics"].items():
            self.assertEqual(m["unit"], want[name], name)
            self.assertTrue(math.isfinite(m["value"]), name)

    def test_workloads(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                first = run(w, 1, 0)
                self.check(first, "end_to_end")
                self.check(run(w, 1, 1), "per_layer")
                if w in DATA_OBLIVIOUS:
                    second = run(w, 2, 0)
                    self.check(second, "end_to_end")
                    self.assertEqual(first["metrics"]["sim_cycles"],
                                     second["metrics"]["sim_cycles"])


if __name__ == "__main__":
    unittest.main()
