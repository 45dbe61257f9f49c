#!/usr/bin/env python3
"""Tests for the serving-bench gate script, scripts/bench_diff.py.

CI runs bench_diff.py --min-speedup 1.0 after bench_inference, and that
speedup floor is the one serving gate that enforces on every leg. These
cases pin that it fails when the candidate is missing what it must check,
and that the report-only modes stay report-only. Each case writes
baseline and candidate JSON files to a temp dir and runs the script.
Run directly (python3 tests/test_bench_diff.py) or via ctest.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                      "scripts", "bench_diff.py")


def candidate(ratios, **extra):
    """A candidate with one server_runs entry per ratio (None = the entry
    has no vs_serial_speedup) and the headline ratio their minimum."""
    doc = {
        "server_runs": [
            {"num_workers": w}
            if r is None else {"num_workers": w, "vs_serial_speedup": r}
            for w, r in zip((1, 2, 4), ratios)
        ],
        "server_vs_serial_speedup": min(r for r in ratios if r is not None),
    }
    doc.update(extra)
    return doc


def run_diff(cand, *args):
    """Runs bench_diff.py on an empty baseline and `cand`; returns
    (exit code, stdout)."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, doc in (("baseline", {}), ("candidate", cand)):
            path = os.path.join(tmp, name + ".json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(doc, f)
            paths.append(path)
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("APF_BENCH_")}
        proc = subprocess.run(
            [sys.executable, SCRIPT, "--baseline", paths[0],
             "--candidate", paths[1], *args],
            capture_output=True, text=True, env=env, check=False)
        return proc.returncode, proc.stdout


class SpeedupFloor(unittest.TestCase):

    def test_empty_candidate_fails(self):
        code, out = run_diff({}, "--min-speedup", "1.0")
        self.assertNotEqual(0, code, out)
        self.assertIn("missing", out)

    def test_run_below_floor_fails(self):
        code, out = run_diff(candidate([1.1, 0.95, 1.2]),
                             "--min-speedup", "1.0")
        self.assertNotEqual(0, code, out)
        self.assertIn("BELOW FLOOR", out)

    def test_run_missing_its_ratio_fails(self):
        code, out = run_diff(candidate([1.1, None, 1.2]),
                             "--min-speedup", "1.0")
        self.assertNotEqual(0, code, out)
        self.assertIn("workers=2", out)

    def test_all_ratios_at_or_above_floor_pass(self):
        code, out = run_diff(candidate([1.0, 1.05, 1.3]),
                             "--min-speedup", "1.0")
        self.assertEqual(0, code, out)
        self.assertIn("OK: all speedup ratios at or above 1.000", out)

    def test_poisoned_candidate_stays_report_only(self):
        for cand in ({"arena_poison": True},
                     candidate([0.5, None, 0.7], arena_poison=True)):
            code, out = run_diff(cand, "--min-speedup", "1.0")
            self.assertEqual(0, code, out)
            self.assertIn("APF_ARENA_POISON=ON", out)

    def test_without_floor_missing_ratios_are_reported(self):
        code, out = run_diff({})
        self.assertEqual(0, code, out)
        self.assertIn("missing", out)


if __name__ == "__main__":
    unittest.main()
