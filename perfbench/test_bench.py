#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

    python3 perfbench/test_bench.py        (from the root of a checkout)

Checks that BENCHMARK.json, run.py and the harness agree on every name, and
runs every workload for a minimal length, traced and untraced, requiring
exit 0, a passing oracle and exactly the declared metrics. The minimal runs
build the benchmark first if needed (about a minute) and take about three
minutes together.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
HARNESS = (BENCH_DIR / "harness.cpp").read_text()


def harness_list(array):
    """(name, unit) pairs of a MetricDef array in harness.cpp."""
    body = HARNESS[HARNESS.index(f"const MetricDef {array}[] = {{"):]
    body = body[:body.index("};")]
    return re.findall(r'\{"([^"]+)", "([^"]+)"\}', body)


def build_root():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


class SpecTest(unittest.TestCase):
    def test_every_name_matches_the_pattern(self):
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME)
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], UNIT)

    def test_harness_and_runner_declare_the_spec(self):
        self.assertEqual([(m["name"], m["unit"]) for m in SPEC["end_to_end"]],
                         harness_list("kEndToEnd"))
        self.assertEqual([(m["name"], m["unit"]) for m in SPEC["per_layer"]],
                         harness_list("kPerLayer"))
        workloads = [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(workloads, list(run.WORKLOADS))
        for w in workloads:
            self.assertIn(f'"{w}"', HARNESS)

    def test_setup_metric_and_bounds(self):
        e2e = {m["name"]: m for m in SPEC["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["better"], "lower")
        self.assertEqual(e2e["setup_s"]["bound"],
                         max(m["bound"] for m in e2e.values()))
        for m in e2e.values():
            self.assertLessEqual(m["bound"], 0.25)


class RunTest(unittest.TestCase):
    def run_bench(self, cwd, workload, trace, seconds="1"):
        return subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", "5", "--seconds", seconds, "--trace", str(trace)],
            cwd=cwd, capture_output=True, text=True, timeout=900)

    def test_minimal_run_of_every_workload(self):
        for w in SPEC["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    proc = self.run_bench(ROOT, w["name"], trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertIn("oracle:", proc.stdout)
                    self.assertEqual(list(result["metrics"]),
                                     [m["name"] for m in SPEC[key]])
                    for m in SPEC[key]:
                        self.assertEqual(result["metrics"][m["name"]]["unit"],
                                         m["unit"])

    def test_refuses_to_run_without_the_sources(self):
        bare = build_root() / "perfbench-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = self.run_bench(bare, "eval-batch64", 0)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
