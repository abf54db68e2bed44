"""Tests of the repository benchmark itself, on quick-scale workloads.

    python3 -m unittest discover -s perfbench/tests -v

Every test runs perfbench/run.py from the command line, with --scale quick
and a short --seconds, so the file runs in well under a minute once the
harness is built (the first run builds it).
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7

sys.path.insert(0, str(RUN.parent))
import run  # noqa: E402  (the benchmark's own span arithmetic)


def bench(workload, trace=0, seed=SEED, extra=(), env=None, cwd=ROOT, script=RUN):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
           "--seconds", "0.5", "--trace", str(trace), "--scale", "quick", *extra]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, env=env, timeout=900)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return p, result


def outputs_line(stdout):
    return next(l for l in stdout.splitlines() if l.startswith("simulated outputs"))


def trace_file(workload, seed=SEED):
    return ROOT / ".bench_out" / ("perfbench_%s_seed%d.trace.json" % (workload, seed))


class QuickRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.runs = {(w, t): bench(w, t) for w in WORKLOADS for t in (0, 1)}

    def metrics(self, workload, trace):
        p, result = self.runs[(workload, trace)]
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        self.assertTrue(result["correct"])
        return result["metrics"]

    def test_every_metric_printed_with_its_unit(self):
        for w in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                p, result = self.runs[(w, trace)]
                self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                want = {m["name"]: m["unit"] for m in SPEC[key]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want, (w, trace))
                for name, m in result["metrics"].items():
                    self.assertIsInstance(m["value"], (int, float), name)
                if trace == 0:
                    for m in SPEC["end_to_end"]:
                        self.assertGreater(result["metrics"][m["name"]]["value"], 0, (w, m))

    def test_same_seed_same_outputs_other_seed_different(self):
        for w in WORKLOADS:
            plain = outputs_line(self.runs[(w, 0)][0].stdout)
            self.assertEqual(plain, outputs_line(self.runs[(w, 1)][0].stdout), w)
            p, _ = bench(w, seed=SEED + 1)
            self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
            self.assertNotEqual(plain, outputs_line(p.stdout), w)

    def test_self_times_sum_to_root_span(self):
        for w in WORKLOADS:
            events = json.loads(trace_file(w).read_text())["traceEvents"]
            self.assertTrue(any(e["ph"] == "C" for e in events), w)
            reps = {}
            for e in events:
                if e["ph"] == "X":
                    reps.setdefault(e["args"]["rep"], []).append(e)
            self.assertGreaterEqual(len(reps), 2, w)
            for selfs, spans in zip(run.self_times(trace_file(w)), reps.values()):
                root = next(e for e in spans if e["args"]["parent"] == -1)
                names = {e["name"] for e in spans if e["args"]["parent"] == root["args"]["id"]}
                self.assertEqual(names, set(run.LAYER_SPANS), w)
                flat = [x for xs in selfs.values() for x in xs]
                self.assertTrue(all(x >= 0 for x in flat), (w, selfs))
                self.assertAlmostEqual(sum(flat), root["dur"] * 1e-6, delta=1e-9, msg=w)

    def test_bypass_predictions(self):
        core = ("core.probe_rounds", "core.eq3_cuts", "core.eq1_resumes",
                "core.probe_timeouts")
        shard = ("shard.windows", "shard.windows_skipped", "shard.posts",
                 "shard.window_rate", "shard.stall_frac", "shard.stall_frac_max",
                 "shard.imbalance", "topo.cut_links")
        lifecycle = ("tcp.conns_attempted", "tcp.conns_established", "tcp.syn_retx",
                     "tcp.fin_retx", "tcp.rst_sent", "tcp.backlog_drops", "tcp.port_dry")
        incast = self.metrics("incast_trim", 1)
        fattree = self.metrics("fattree_sharded", 1)
        storm = self.metrics("storm_churn", 1)
        for name in core:
            self.assertEqual(fattree[name]["value"], 0, name)
            self.assertEqual(storm[name]["value"], 0, name)
        self.assertGreater(incast["core.eq3_cuts"]["value"], 0)
        for name in shard:
            self.assertEqual(incast[name]["value"], 0, name)
            self.assertEqual(storm[name]["value"], 0, name)
            self.assertGreater(fattree[name]["value"], 0, name)
        for name in lifecycle:
            self.assertEqual(incast[name]["value"], 0, name)
            self.assertEqual(fattree[name]["value"], 0, name)
        self.assertGreater(storm["tcp.conns_established"]["value"], 0)


class FailurePaths(unittest.TestCase):
    def test_forced_digest_mismatch_fails(self):
        p, result = bench("incast_trim", extra=["--corrupt-digest"])
        self.assertNotEqual(p.returncode, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn("CHECK FAILED", p.stdout)

    def test_knob_that_changes_the_timed_path_is_refused(self):
        for knob in run.PATH_KNOBS:
            p, result = bench("storm_churn", env=dict(os.environ, **{knob: "1"}))
            self.assertNotEqual(p.returncode, 0, knob)
            self.assertIsNone(result, knob)

    def test_fails_without_the_simulator_sources(self):
        (ROOT / ".bench_out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
            p, result = bench("incast_trim", env=env, cwd=tmp,
                              script=Path(tmp) / "perfbench" / "run.py")
        self.assertNotEqual(p.returncode, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
