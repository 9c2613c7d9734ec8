#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench/tests

Each run uses two suite programs and a one-second budget, so the whole file
takes about a minute once the binaries are built.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
COMPARE = os.path.join(ROOT, "perfbench", "compare.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace=0, *extra):
    """Runs one tiny workload; returns (exit code, stdout lines)."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--programs", "2", *extra]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    return r.returncode, r.stdout.strip().splitlines()


class EveryMetricIsPrinted(unittest.TestCase):
    def check(self, workload, trace, spec):
        code, lines = run(workload, trace)
        self.assertEqual(code, 0, lines)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in spec}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
        self.assertTrue(any(line.startswith("host nproc=") for line in lines))

    def test_end_to_end_metrics(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], 0, SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], 1, SPEC["per_layer"])

    def test_end_to_end_metrics_are_never_zero(self):
        code, lines = run("exec", 0)
        self.assertEqual(code, 0, lines)
        for name, m in json.loads(lines[-1])["metrics"].items():
            self.assertGreater(m["value"], 0, name)


class TamperedOutputsFail(unittest.TestCase):
    def check_fails(self, workload, tamper):
        code, lines = run(workload, 0, "--tamper", tamper)
        self.assertNotEqual(code, 0, lines)
        result = json.loads(lines[-1])
        self.assertIs(result["correct"], False)
        self.assertGreater(result["failed"], 0)

    def test_checksum(self):
        for w in ("compile", "exec", "serve", "arch"):
            with self.subTest(workload=w):
                self.check_fails(w, "checksum")

    def test_counter(self):
        for w in ("compile", "arch"):
            with self.subTest(workload=w):
                self.check_fails(w, "counter")


class Refusals(unittest.TestCase):
    def test_fails_without_the_repository(self):
        """With only BENCHMARK.json and perfbench/, there is nothing to build."""
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exec",
                                "--seed", "1", "--seconds", "1", "--trace", "0"],
                               cwd=d, capture_output=True, text=True, timeout=180,
                               env=dict(os.environ, CARGO_TARGET_DIR=os.path.join(d, "t")))
            self.assertNotEqual(r.returncode, 0)
            self.assertNotIn('"correct"', r.stdout)

    def test_compare_refuses_other_hosts(self):
        rec = {"workload": "exec", "trace": False, "seed": 1, "seconds": 1,
               "metrics": {"ops_per_s": {"value": 1.0, "unit": "1/s"}}}
        with tempfile.TemporaryDirectory() as d:
            paths = []
            for i, host in enumerate(("nproc=2 cpu=A", "nproc=4 cpu=B")):
                paths.append(os.path.join(d, f"{i}.jsonl"))
                with open(paths[-1], "w") as f:
                    f.write(json.dumps(dict(rec, host=host)) + "\n")
            r = subprocess.run([sys.executable, COMPARE, *paths], capture_output=True, text=True)
            self.assertEqual(r.returncode, 2, r.stderr)
            r = subprocess.run([sys.executable, COMPARE, paths[0], paths[0]],
                               capture_output=True, text=True)
            self.assertEqual(r.returncode, 0, r.stderr)


if __name__ == "__main__":
    unittest.main()
