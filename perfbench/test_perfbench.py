#!/usr/bin/env python3
"""Identity checks of the benchmark binaries (stdlib unittest).

Run from the repository root (builds into $CARGO_TARGET_DIR or
.bench_build, like run.py; takes about two minutes on four cores):

    python3 perfbench/test_perfbench.py

For every workload, on the default seed and a held-out seed:
  * the composed runner matches RunSloExperiment / RunClusterSloExperiment
    run with the same options (energy, every count, per-class latency
    statistics and the sampled series, compared exactly);
  * the traced run reproduces the untraced run's simulated outputs exactly
    (same digest), and both pass every per-run correctness check.
"""

import json
import os
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

BUILD_DIR = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
DEFAULT_SEED = 77001
HELD_OUT_SEED = 424242


def sim(binary, workload, seed, *extra):
    result = subprocess.run(
        [os.path.join(BUILD_DIR, binary), "--workload", workload, "--seed",
         str(seed)] + list(extra),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=run.REP_TIMEOUT_S, check=False)
    return result.returncode, json.loads(result.stdout.strip().splitlines()[-1])


class IdentityTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build(BUILD_DIR)

    def check_workload(self, workload):
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            with self.subTest(seed=seed):
                code, untraced = sim("perfbench_sim", workload, seed,
                                     "--identity")
                self.assertEqual(untraced["violations"], "")
                self.assertEqual(code, 0)
                code, traced = sim("perfbench_sim_traced", workload, seed)
                self.assertEqual(traced["violations"], "")
                self.assertEqual(code, 0)
                self.assertEqual(traced["digest"], untraced["digest"])
                self.assertGreater(traced["events"], 0)

    def test_crowd(self):
        self.check_workload("crowd")

    def test_diurnal(self):
        self.check_workload("diurnal")

    def test_rack(self):
        self.check_workload("rack")


if __name__ == "__main__":
    unittest.main()
