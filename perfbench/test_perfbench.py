#!/usr/bin/env python3
"""The ledger's own tests.

    python3 perfbench/test_perfbench.py

Builds the ledger, runs its arithmetic tests (span self time and the
reconciliation on hand-built span trees), then a smoke-size run of every
workload with tracing off and on, asserting that each run is correct and
emits exactly the metrics BENCHMARK.json names, each finite and with its
declared unit.
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def smoke_run(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)
    lines = done.stdout.strip().splitlines()
    return done, (json.loads(lines[-1]) if lines else None)


class ArithmeticTest(unittest.TestCase):
    def test_span_arithmetic(self):
        binary = run.build("ledger_test")
        self.assertIsNotNone(binary, "ledger_test failed to build")
        done = subprocess.run([binary], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
        self.assertEqual(done.returncode, 0, done.stderr)


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if run.build() is None:
            raise RuntimeError("ledger failed to build")

    def check(self, workload, trace, declared):
        done, result = smoke_run(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-4000:])
        self.assertIsNotNone(result)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stderr[-4000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        for m in declared:
            got = metrics[m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
        if trace == 1:
            spans = os.path.join(ROOT, ".bench_out", f"spans-{workload}-s7.json")
            with open(spans) as f:
                names = {span["name"] for span in json.load(f)}
            self.assertTrue({"query", "sketch", "router", "replay", "shard",
                             "probe", "estimate", "merge"} <= names, names)
        return metrics

    def test_end_to_end_metrics(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                metrics = self.check(w["name"], 0, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(metrics[m["name"]]["value"], 0, m["name"])

    def test_per_layer_metrics(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                metrics = self.check(w["name"], 1, SPEC["per_layer"])
                hit_ratio = metrics["cache.hit_ratio"]["value"]
                if w["name"] == "serve_ingest":
                    self.assertGreater(hit_ratio, 0)
                    self.assertGreater(metrics["compact.count"]["value"], 0)
                    self.assertGreater(
                        metrics["pool.evictions_per_query"]["value"], 0)
                else:
                    self.assertEqual(hit_ratio, 0)


if __name__ == "__main__":
    unittest.main()
