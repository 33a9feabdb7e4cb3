#!/usr/bin/env python3
"""Exit-status tests for scripts/compare_bench.py on crafted inputs.

    compare_bench_test.py PATH/TO/compare_bench.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = None


def metric(name, unit, value, ops):
    return {"campaign": "simcore", "benchmark": name, "unit": unit,
            "value": value, "ops": ops, "wall_s": 0.1}


def baseline():
    return [metric("calibration", "ops/s", 1.0e8, 40000000),
            metric("eq_schedule_fire", "events/s", 2.0e7, 1638400),
            metric("coherence_txn_sim_latency", "ticks", 203998.2,
                   20000)]


class CompareBench(unittest.TestCase):
    def run_compare(self, base, cur):
        with tempfile.TemporaryDirectory() as d:
            paths = []
            for name, lines in (("base.json", base), ("cur.json", cur)):
                path = os.path.join(d, name)
                with open(path, "w", encoding="utf-8") as fh:
                    for obj in lines:
                        fh.write(json.dumps(obj) + "\n")
                paths.append(path)
            return subprocess.run(
                [sys.executable, SCRIPT] + paths,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True)

    def test_identical_files_pass(self):
        r = self.run_compare(baseline(), baseline())
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_exact_metric_change_at_equal_ops_fails(self):
        cur = baseline()
        cur[2]["value"] = 204000.0
        r = self.run_compare(baseline(), cur)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("DETERMINISM MISMATCH", r.stdout)

    def test_ops_mismatch_is_a_mode_error(self):
        # A full run against a --quick baseline: 100k vs 20k txns.
        cur = baseline()
        cur[2]["value"] = 204000.0
        cur[2]["ops"] = 100000
        r = self.run_compare(baseline(), cur)
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
        self.assertIn("mode mismatch", r.stderr)
        self.assertNotIn("DETERMINISM MISMATCH", r.stdout)

    def test_throughput_down_30_percent_after_calibration_fails(self):
        # The host is twice as fast, so 1.4x the raw rate is 0.7x.
        cur = baseline()
        cur[0]["value"] *= 2.0
        cur[1]["value"] *= 1.4
        r = self.run_compare(baseline(), cur)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("REGRESSION", r.stdout)


if __name__ == "__main__":
    SCRIPT = sys.argv.pop(1)
    unittest.main()
