#!/usr/bin/env python3
"""Unit tests for perf_guard.py (run as a ctest; stdlib unittest only).

Each case writes a baseline/measured document pair into a temp dir and
runs the guard as a subprocess, asserting on exit code and the lines the
docstring promises: [ok]/[FAIL] per metric, [skip] for baseline-only
cells, [new ] for measured-only cells, [map ] for renames.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

GUARD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "perf_guard.py")


def doc(cells, mode="quick", n=100000, threads=1):
    return {
        "mode": mode,
        "n": n,
        "threads": threads,
        "topologies": [
            {
                "topology": topo,
                "dynamics": dyn,
                "strict_node_updates_per_sec": strict,
                "batched_node_updates_per_sec": batched,
            }
            for (topo, dyn, strict, batched) in cells
        ],
    }


class PerfGuardTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)

    def run_guard(self, base, meas, *extra):
        base_path = os.path.join(self._tmp.name, "base.json")
        meas_path = os.path.join(self._tmp.name, "meas.json")
        with open(base_path, "w") as f:
            json.dump(base, f)
        with open(meas_path, "w") as f:
            json.dump(meas, f)
        proc = subprocess.run(
            [sys.executable, GUARD, base_path, meas_path, *extra],
            capture_output=True, text=True)
        return proc.returncode, proc.stdout, proc.stderr

    def test_within_tolerance_passes(self):
        base = doc([("ring", "3-majority", 100.0, 400.0)])
        meas = doc([("ring", "3-majority", 90.0, 380.0)])
        code, out, _ = self.run_guard(base, meas)
        self.assertEqual(code, 0)
        self.assertIn("all 2 cells within tolerance", out)

    def test_regression_fails(self):
        base = doc([("ring", "3-majority", 100.0, 400.0)])
        meas = doc([("ring", "3-majority", 100.0, 100.0)])
        code, out, err = self.run_guard(base, meas)
        self.assertEqual(code, 1)
        self.assertIn("FAIL", out)
        self.assertIn("batched_node_updates_per_sec", err)

    def test_baseline_only_cell_is_skipped_not_fatal(self):
        base = doc([("ring", "3-majority", 100.0, 400.0),
                    ("torus", "voter", 50.0, 200.0)])
        meas = doc([("ring", "3-majority", 100.0, 400.0)])
        code, out, _ = self.run_guard(base, meas)
        self.assertEqual(code, 0)
        self.assertIn("[skip]", out)
        self.assertIn("torus", out)

    def test_measured_only_cell_is_reported(self):
        # The docstring's "or vice versa": a cell added to the bench but
        # absent from the committed baseline must be surfaced, not silent.
        base = doc([("ring", "3-majority", 100.0, 400.0)])
        meas = doc([("ring", "3-majority", 100.0, 400.0),
                    ("gossip", "3-majority", 500.0, 900.0)])
        code, out, _ = self.run_guard(base, meas)
        self.assertEqual(code, 0)
        self.assertIn("[new ]", out)
        self.assertIn("gossip", out)

    def test_rename_maps_and_target_not_reported_as_new(self):
        base = doc([("cycle", "3-majority", 100.0, 400.0)])
        meas = doc([("ring", "3-majority", 100.0, 400.0)])
        code, out, _ = self.run_guard(
            base, meas, "--rename", "cycle/3-majority=ring/3-majority")
        self.assertEqual(code, 0)
        self.assertIn("[map ]", out)
        self.assertNotIn("[new ]", out)
        self.assertNotIn("[skip]", out)

    def test_rename_still_catches_regressions(self):
        base = doc([("cycle", "3-majority", 100.0, 400.0)])
        meas = doc([("ring", "3-majority", 10.0, 400.0)])
        code, _, err = self.run_guard(
            base, meas, "--rename", "cycle/3-majority=ring/3-majority")
        self.assertEqual(code, 1)
        self.assertIn("strict_node_updates_per_sec", err)

    def test_rename_topology_containing_slash(self):
        # Cell keys like "random 8-regular/identity" carry a '/', so the
        # rename must split old/new keys at the LAST '/' to reach them.
        base = doc([("random 8-regular/identity", "voter", 100.0, 400.0)])
        meas = doc([("random 8-regular", "voter", 10.0, 400.0)])
        code, out, err = self.run_guard(
            base, meas, "--rename",
            "random 8-regular/identity/voter=random 8-regular/voter")
        self.assertIn("[map ]", out)
        self.assertNotIn("[skip]", out)
        self.assertNotIn("[new ]", out)
        self.assertEqual(code, 1)
        self.assertIn("strict_node_updates_per_sec", err)

    def test_removed_push_metric_is_not_compared(self):
        # The committed baselines still carry the removed push engine's
        # metric; it must not gate, even against a document that has it.
        base = doc([("random 8-regular", "voter", 100.0, 400.0)])
        base["topologies"][0]["push_node_updates_per_sec"] = 900.0
        meas = doc([("random 8-regular", "voter", 100.0, 400.0)])
        meas["topologies"][0]["push_node_updates_per_sec"] = 100.0
        code, out, _ = self.run_guard(base, meas)
        self.assertEqual(code, 0)
        self.assertNotIn("push_node_updates_per_sec", out)

    def test_no_comparable_cells_fails(self):
        base = doc([("ring", "3-majority", 100.0, 400.0)])
        meas = doc([("torus", "voter", 100.0, 400.0)])
        code, _, err = self.run_guard(base, meas)
        self.assertEqual(code, 1)
        self.assertIn("no comparable cells", err)

    def test_missing_bench_json_names_the_file_no_traceback(self):
        # A bench that never ran must produce an actionable one-liner
        # naming the missing path, not a FileNotFoundError traceback.
        base = doc([("ring", "3-majority", 100.0, 400.0)])
        base_path = os.path.join(self._tmp.name, "base.json")
        with open(base_path, "w") as f:
            json.dump(base, f)
        missing = os.path.join(self._tmp.name, "never_written.json")
        proc = subprocess.run(
            [sys.executable, GUARD, base_path, missing],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 1)
        self.assertIn(missing, proc.stderr)
        self.assertIn("did not run", proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)

    def test_missing_baseline_names_the_file_no_traceback(self):
        meas = doc([("ring", "3-majority", 100.0, 400.0)])
        meas_path = os.path.join(self._tmp.name, "meas.json")
        with open(meas_path, "w") as f:
            json.dump(meas, f)
        missing = os.path.join(self._tmp.name, "no_baseline.json")
        proc = subprocess.run(
            [sys.executable, GUARD, missing, meas_path],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 1)
        self.assertIn(missing, proc.stderr)
        self.assertIn("baseline", proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)

    def test_truncated_bench_json_is_actionable(self):
        base = doc([("ring", "3-majority", 100.0, 400.0)])
        base_path = os.path.join(self._tmp.name, "base.json")
        with open(base_path, "w") as f:
            json.dump(base, f)
        trunc_path = os.path.join(self._tmp.name, "truncated.json")
        with open(trunc_path, "w") as f:
            f.write('{"mode": "quick", "topologies": [')
        proc = subprocess.run(
            [sys.executable, GUARD, base_path, trunc_path],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 1)
        self.assertIn(trunc_path, proc.stderr)
        self.assertIn("not valid JSON", proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)

    def test_config_mismatch_fails_without_flag(self):
        base = doc([("ring", "3-majority", 100.0, 400.0)], n=100000)
        meas = doc([("ring", "3-majority", 100.0, 400.0)], n=1000000)
        code, _, err = self.run_guard(base, meas)
        self.assertEqual(code, 1)
        self.assertIn("configs differ", err)
        code, _, _ = self.run_guard(base, meas, "--allow-config-mismatch")
        self.assertEqual(code, 0)


if __name__ == "__main__":
    unittest.main()
