#!/usr/bin/env python3
"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m unittest discover -s aqpbench/tests -v

The first test builds the benchmark (as aqpbench/run.py does) if needed.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "aqpbench"))
import run  # noqa: E402  (the benchmark's runner script)

RUN = [sys.executable, str(ROOT / "aqpbench" / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Every workload run.py accepts, including any left out of BENCHMARK.json.
WORKLOADS = list(run.WORKLOADS)


def run_bench(workload, trace, *extra):
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--smoke", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done.stdout


class CheckerTest(unittest.TestCase):
    def test_checker_self_test(self):
        code, _, out = run_bench(WORKLOADS[0], 0)  # Builds the binary.
        self.assertEqual(code, 0, out)
        binary = run.build_dir() / "aqpbench"
        done = subprocess.run([str(binary), "--self-test"],
                              capture_output=True, text=True, timeout=60)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)

    def test_perturbed_answer_fails_the_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, out = run_bench(workload, 0, "--perturb")
                self.assertNotEqual(code, 0, out)
                self.assertIsNotNone(result, out)
                self.assertFalse(result["correct"], out)


class SmokeTest(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, result, out = run_bench(workload, trace)
                    self.assertEqual(code, 0, out)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"], out)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0, out)
                    got = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)
                    if trace == 1:
                        self.assertIn("unattributed", out)
                        self.assertIn("trace overhead share", out)


if __name__ == "__main__":
    unittest.main()
