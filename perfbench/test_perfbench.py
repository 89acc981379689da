#!/usr/bin/env python3
"""Tests of the SPATE benchmark itself: its result format, its correctness
gate, the serve generator's safety property and seed determinism.

Run from the root of a checkout (builds the benchmark first; takes a few
minutes):

    python3 perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (the benchmark's build-and-run script)

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(*args):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    done = subprocess.run([run.BINARY, "--out-dir", run.TRACE_DIR, *args],
                          capture_output=True, text=True, timeout=300)
    return done.returncode, done.stdout.strip().splitlines()


def workload(name, seed, seconds=1, trace=0, *extra):
    code, lines = bench("--workload", name, "--seed", str(seed), "--seconds",
                        str(seconds), "--trace", str(trace), *extra)
    assert code == 0, "\n".join(lines)
    result = json.loads(lines[-1])
    deterministic = {}
    for line in lines:
        if line.startswith("# deterministic "):
            deterministic = json.loads(line[len("# deterministic "):])
    return result, deterministic


class BenchmarkTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        os.makedirs(run.TRACE_DIR, exist_ok=True)
        if not run.build():
            raise RuntimeError("benchmark build failed")

    def test_layer_metric_names_match_the_spec(self):
        code, lines = bench("--list-layer-metrics")
        self.assertEqual(code, 0)
        listed = dict(line.split() for line in lines)
        spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        self.assertEqual(listed, spec)

    def test_result_line_carries_every_end_to_end_metric(self):
        result, _ = workload("ingest", 3)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        names = {m["name"] for m in SPEC["end_to_end"]}
        self.assertEqual(set(result["metrics"]), names)
        for name, metric in result["metrics"].items():
            self.assertGreater(metric["value"], 0, name)

    def test_perturbed_reference_lowers_correct_frac(self):
        for name in ("explore", "ingest", "serve"):
            clean, _ = workload(name, 4)
            self.assertEqual(clean["metrics"]["correct_frac"]["value"], 1.0,
                             name)
            perturbed, _ = workload(name, 4, 1, 0, "--perturb-reference")
            self.assertFalse(perturbed["correct"], name)
            self.assertGreater(perturbed["failed"], 0, name)
            self.assertLess(perturbed["metrics"]["correct_frac"]["value"], 1.0,
                            name)

    def test_serve_windows_stay_behind_the_feed(self):
        # A window reaching the feed's epochs could be answered stale from a
        # shard's ResultCache (see NOTES.md), so none may be generated.
        code, lines = bench("--check-serve-windows", "200")
        self.assertEqual(code, 0, "\n".join(lines))
        self.assertIn("0 violations", lines[-1])

    def test_same_seed_same_sequence_and_counts(self):
        for name in ("ingest", "explore"):
            _, first = workload(name, 5)
            _, again = workload(name, 5)
            _, other = workload(name, 6)
            self.assertGreater(len(first), 1, name)
            self.assertEqual(first, again, name)
            self.assertNotEqual(first["op_sequence"], other["op_sequence"],
                                name)
        # The traced run adds the codec's exact byte counts.
        _, traced = workload("ingest", 5, 1, 1)
        _, traced_again = workload("ingest", 5, 1, 1)
        self.assertIn("compress.ratio", traced)
        self.assertEqual(traced, traced_again)

    def test_traced_explore_run_reconciles_its_replay(self):
        result, _ = workload("explore", 7, 2, 1)
        self.assertTrue(result["correct"])
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in SPEC["per_layer"]})
        self.assertGreater(metrics["replay.ops"]["value"], 0)
        self.assertEqual(metrics["replay.reconciled_ops"]["value"],
                         metrics["replay.ops"]["value"])


if __name__ == "__main__":
    unittest.main()
