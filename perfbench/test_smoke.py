#!/usr/bin/env python3
"""The benchmark's own tests, on --smoke sizes (about a minute with a built
driver; the first call builds it).

    python3 perfbench/test_smoke.py

Checks that every workload, traced and untraced, on both input sets, passes
its output checks and prints exactly the metric names and units that
BENCHMARK.json declares; that a wrong pin fails the run; and that the
benchmark refuses to run without the repository's sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run(workload, seed, trace):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_every_metric_emitted_and_checked(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                for seed in (0, 1):
                    with self.subTest(workload=workload, trace=trace,
                                      seed=seed):
                        proc = run(workload, seed, trace)
                        self.assertEqual(proc.returncode, 0, proc.stderr)
                        result = json.loads(proc.stdout.splitlines()[-1])
                        self.assertEqual(
                            sorted(result),
                            ["attempted", "correct", "failed", "metrics"])
                        self.assertTrue(result["correct"])
                        self.assertEqual(result["failed"], 0)
                        self.assertGreaterEqual(result["attempted"], 1)
                        want = {m["name"]: m["unit"] for m in self.spec[kind]}
                        got = {k: v["unit"]
                               for k, v in result["metrics"].items()}
                        self.assertEqual(got, want)

    def test_wrong_pin_fails_the_run(self):
        build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
        driver = os.path.join(build, "perfbench", "perfbench_driver")
        self.assertEqual(run("collider-4k", 0, 0).returncode, 0)  # builds
        with tempfile.TemporaryDirectory() as tmp:
            pins = os.path.join(tmp, "pins.txt")
            with open(os.path.join(HERE, "pins.txt")) as f:
                text = f.read()
            with open(pins, "w") as f:
                f.write(text.replace(
                    "smoke-default collider-4k.solve_round 680",
                    "smoke-default collider-4k.solve_round 681"))
            proc = subprocess.run(
                [driver, "--workload", "collider-4k", "--seed", "0",
                 "--seconds", "0.2", "--trace", "0", "--smoke",
                 "--pins", pins, "--workdir", tmp],
                capture_output=True, text=True, timeout=300)
        self.assertEqual(proc.returncode, 1)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("solve_round = 680, pinned 681", proc.stderr)

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "fig1-inproc", "--seed", "0", "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
