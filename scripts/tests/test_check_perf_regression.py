"""Tests of the perf-regression gate, run on temporary REPORT_*.json files.

    python3 -m unittest discover -s scripts/tests -v
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "check_perf_regression.py"


def report(rates, rss=100e6):
    """A run report carrying one perf row per (scenario, items_per_sec)."""
    return {"schema_version": 2, "report": "unit", "peak_rss_bytes": rss,
            "hw_threads": 4, "rows": [],
            "perf": [{"scenario": s, "items_per_sec": r} for s, r in rates.items()]}


class Gate(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.dir = Path(tmp.name)

    def write(self, name, doc):
        path = self.dir / name
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        return path

    def gate(self, current, baseline=None, *extra):
        cur = self.write("REPORT_unit.json", current)
        base = self.dir / "baseline" / "REPORT_unit.json"
        if baseline is not None:
            base.parent.mkdir(exist_ok=True)
            base.write_text(baseline if isinstance(baseline, str) else json.dumps(baseline))
        cmd = [sys.executable, str(SCRIPT), "--current", str(cur),
               "--baseline", str(base), *extra]
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        return p.returncode, p.stdout + p.stderr

    def test_drop_beyond_threshold_fails(self):
        code, out = self.gate(report({"fig08_scale_1": 80.0}),
                              report({"fig08_scale_1": 100.0}),
                              "--scenario-prefix", "fig08_scale", "--threshold", "0.10")
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL", out)

    def test_drop_within_threshold_passes(self):
        code, out = self.gate(report({"fig08_scale_1": 95.0}),
                              report({"fig08_scale_1": 100.0}),
                              "--scenario-prefix", "fig08_scale", "--threshold", "0.10")
        self.assertEqual(code, 0, out)

    def test_rss_growth_beyond_threshold_fails(self):
        code, out = self.gate(report({"memory_a": 100.0}, rss=130e6),
                              report({"memory_a": 100.0}, rss=100e6),
                              "--scenario-prefix", "memory_", "--rss-threshold", "0.25")
        self.assertEqual(code, 1, out)
        self.assertIn("peak RSS", out)

    def test_missing_or_unparsable_baseline_only_records(self):
        code, out = self.gate(report({"memory_a": 1.0}))
        self.assertEqual(code, 0, out)
        self.assertIn("no baseline", out)
        code, out = self.gate(report({"memory_a": 1.0}), "{not json")
        self.assertEqual(code, 0, out)
        self.assertIn("unreadable", out)

    def test_prefix_matching_no_scenario_passes(self):
        code, out = self.gate(report({"memory_a": 1.0}), report({"memory_a": 100.0}),
                              "--scenario-prefix", "conn_storm_batch")
        self.assertEqual(code, 0, out)
        self.assertIn("nothing to gate", out)

    def test_history_keep_trims_the_window(self):
        history = self.dir / "history"
        for rate in (1.0, 2.0, 3.0, 4.0):
            code, out = self.gate(report({"memory_a": rate}), None,
                                  "--history-dir", str(history), "--history-keep", "3")
            self.assertEqual(code, 0, out)
        kept = sorted(os.listdir(history))
        self.assertEqual(kept, ["REPORT_unit.000001.json", "REPORT_unit.000002.json",
                                "REPORT_unit.000003.json"])
        newest = json.loads((history / kept[-1]).read_text())
        self.assertEqual(newest["perf"][0]["items_per_sec"], 4.0)


if __name__ == "__main__":
    unittest.main()
