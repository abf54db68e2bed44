"""Tests of the report comparison, run on temporary REPORT_*.json files.

    python3 -m unittest discover -s scripts/tests -v
"""
import copy
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "report_diff.py"


def report(goodput=12.5, rate=1e6, rss=4e6):
    """A run report with one deterministic row and one wall-clock perf row."""
    return {"schema_version": 3, "report": "unit", "quick": True,
            "peak_rss_bytes": rss, "hw_threads": 4, "scalars": {},
            "metrics": {"counters": {"queue.drops": 3}, "gauges": {},
                        "histograms": {"conn.setup_ms": {"count": 2, "sum": 0.5}}},
            "rows": [{"scenario": "clean/TCP", "goodput_mbps": 10.0},
                     {"scenario": "churn/TCP", "goodput_mbps": goodput}],
            "series": [],
            "perf": [{"scenario": "clean/TCP", "items_per_sec": rate}],
            "profile": [{"name": "sim.run", "wall_s": 0.1}]}


class ReportDiff(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.dir = Path(tmp.name)

    def write(self, side, name, doc):
        path = self.dir / side / name
        path.parent.mkdir(exist_ok=True)
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        return path

    def diff(self, a, b):
        p = subprocess.run([sys.executable, str(SCRIPT), str(a), str(b)],
                           capture_output=True, text=True, timeout=60)
        return p.returncode, p.stdout + p.stderr

    def test_equal_reports(self):
        a = self.write("a", "REPORT_unit.json", report())
        b = self.write("b", "REPORT_unit.json", report())
        self.assertEqual(self.diff(a, b)[0], 0)
        code, out = self.diff(a.parent, b.parent)
        self.assertEqual(code, 0, out)
        self.assertIn("1 report(s) equal", out)

    def test_differing_row_value_is_named_by_its_path(self):
        self.write("a", "REPORT_unit.json", report(goodput=12.5))
        self.write("b", "REPORT_unit.json", report(goodput=12.75))
        code, out = self.diff(self.dir / "a", self.dir / "b")
        self.assertEqual(code, 1, out)
        self.assertIn("REPORT_unit.json: rows[1].goodput_mbps: 12.5 != 12.75", out)

    def test_non_identifier_keys_and_lengths(self):
        a, b = report(), report()
        b["metrics"]["histograms"]["conn.setup_ms"]["sum"] = 0.75
        code, out = self.diff(self.write("a", "REPORT_unit.json", a),
                              self.write("b", "REPORT_unit.json", b))
        self.assertEqual(code, 1, out)
        self.assertIn('metrics.histograms["conn.setup_ms"].sum: 0.5 != 0.75', out)
        c = copy.deepcopy(a)
        c["rows"].append({"scenario": "extra"})
        code, out = self.diff(self.dir / "a" / "REPORT_unit.json",
                              self.write("c", "REPORT_unit.json", c))
        self.assertEqual(code, 1, out)
        self.assertIn("rows length: 2 != 3", out)

    def test_difference_only_in_wall_clock_fields_is_ignored(self):
        other = report(rate=2e6, rss=8e6)
        other["hw_threads"] = 64
        other["profile"] = []
        code, out = self.diff(self.write("a", "REPORT_unit.json", report()),
                              self.write("b", "REPORT_unit.json", other))
        self.assertEqual(code, 0, out)

    def test_report_on_one_side_only_differs(self):
        self.write("a", "REPORT_unit.json", report())
        self.write("b", "REPORT_unit.json", report())
        self.write("a", "REPORT_extra.json", report())
        code, out = self.diff(self.dir / "a", self.dir / "b")
        self.assertEqual(code, 1, out)
        self.assertIn("REPORT_extra.json: missing in B", out)

    def test_bad_invocations(self):
        a = self.write("a", "REPORT_unit.json", report())
        self.assertEqual(self.diff(a, self.dir / "nowhere.json")[0], 2)
        self.assertEqual(self.diff(a, self.dir)[0], 2)  # file against directory
        self.assertEqual(self.diff(a, self.write("b", "REPORT_unit.json", "{not json"))[0], 2)
        (self.dir / "empty1").mkdir()
        (self.dir / "empty2").mkdir()
        self.assertEqual(self.diff(self.dir / "empty1", self.dir / "empty2")[0], 2)


if __name__ == "__main__":
    unittest.main()
