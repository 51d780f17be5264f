"""Tests of the repository benchmark itself.

    python3 -m unittest discover -s perfbench/tests

Runs every workload at tiny size in both modes (the benchmark is built on
first use, as by perfbench/run.py), and checks that a failed output check
fails the run.
"""

import json
import math
import os
import shutil
import subprocess
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(*extra, cwd=ROOT, run_py=RUN):
    return subprocess.run(["python3", run_py, *extra], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def result_of(proc):
    return json.loads(proc.stdout.splitlines()[-1])


def provenance_of(proc):
    return json.loads(proc.stdout.splitlines()[-2])["provenance"]


class SmokeTest(unittest.TestCase):
    def test_every_workload_emits_every_declared_metric(self):
        for w in SPEC["workloads"]:
            for trace, declared in ((0, SPEC["end_to_end"]),
                                    (1, SPEC["per_layer"])):
                with self.subTest(workload=w["name"], trace=trace):
                    proc = run("--workload", w["name"], "--seed", "7",
                               "--seconds", "1", "--trace", str(trace),
                               "--tiny")
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    result = result_of(proc)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(set(result["metrics"]),
                                     {m["name"] for m in declared})
                    for m in declared:
                        got = result["metrics"][m["name"]]
                        self.assertTrue(math.isfinite(got["value"]), m["name"])
                        self.assertEqual(got["unit"], m["unit"], m["name"])
                    if trace == 0:
                        samples = provenance_of(proc)["samples"]
                        self.assertGreaterEqual(
                            samples["latency_p90_ms_beyond"], 10)


class OutputCheckTest(unittest.TestCase):
    def test_corrupted_payload_fails_the_run(self):
        proc = run("--workload", "fig4_opoao_mc", "--seed", "7",
                   "--seconds", "1", "--trace", "0", "--tiny",
                   "--corrupt-payload")
        self.assertNotEqual(proc.returncode, 0)
        result = result_of(proc)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_refuses_a_tree_without_the_library(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-tree")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run("--workload", "fig4_opoao_mc", "--seed", "1",
                       "--seconds", "1", "--trace", "0", cwd=bare,
                       run_py=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
