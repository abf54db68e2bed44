#!/usr/bin/env python3
"""The repository benchmark: time-to-result of the simulator on one workload.

    python3 perfbench/run.py --workload incast_trim --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. It builds perfbench/perfbench.cpp
(and the simulator libraries from src/) into .bench_build, then:

  --trace 0  times repetitions of the workload for --seconds and prints the
             end-to-end metrics of BENCHMARK.json (medians over repetitions);
  --trace 1  alternates plain and traced repetitions, writes the traced
             spans to .bench_out/ as Chrome trace-event JSON and prints the
             per-layer metrics of BENCHMARK.json.

Either way it then checks the simulated outputs: every repetition must
complete its workload and give one digest; the digest must equal the one
from the scenario's own entry point; and an untimed pass with the invariant
checker on must be clean. The last stdout line is one JSON object with
"correct", "attempted", "failed" and "metrics". The exit code is non-zero
when any check fails or when a knob that changes the timed code path
(TRIM_TRACE, TRIM_TELEMETRY, TRIM_CHECK_INVARIANTS) is set.

Test hooks: --scale quick shrinks every workload; --corrupt-digest flips the
digest of one repetition, which must make the run fail.
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("incast_trim", "fattree_sharded", "storm_churn")
PATH_KNOBS = ("TRIM_TRACE", "TRIM_TELEMETRY", "TRIM_CHECK_INVARIANTS")
CHILD_TIMEOUT_S = 150
# Span names of the traced run, in call order (children of each "rep").
LAYER_SPANS = ("exp.world", "topo.build", "topo.partition", "core.flow_setup",
               "sim.run", "obs.snapshot", "exp.teardown")


class BenchError(Exception):
    """A failure that leaves no result to report."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def say(*parts):
    print(*parts, flush=True)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build():
    """Configure once, then let the build tool decide what to recompile."""
    bdir = build_dir()
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("no simulator sources at src/; run from a full checkout")
    if not (bdir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(bdir), "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    return bdir / "perfbench"


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def cpu_ticks():
    """(steal, total) CPU ticks over all CPUs from /proc/stat; (0, 0) if unknown.

    Steal is time a hypervisor ran something else on this guest's CPUs; on
    a shared host it is the usual reason one run is slower than another."""
    try:
        fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
        return fields[7], sum(fields)
    except (OSError, IndexError, ValueError):
        return 0, 0


def clean_env(extra=None):
    """The parent environment minus every simulator knob: the program under
    test is pinned by its own configuration, never by TRIM_*/REPRO_*."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("TRIM_", "REPRO_"))}
    env.update(extra or {})
    return env


def start_child(cmd, env):
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, env=env,
                            cwd=ROOT, text=True)


def finish_child(proc):
    """Wait for one harness process; returns (returncode, its JSON or None)."""
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return -1, None
    lines = [l for l in out.splitlines() if l.strip()]
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs, q):
    """Nearest-rank percentile (q in [0, 100])."""
    if not xs:
        return 0.0
    s = sorted(xs)
    return s[max(0, math.ceil(q / 100.0 * len(s)) - 1)]


def self_times(trace_path):
    """Per traced repetition: {span name: [self seconds, ...]}.

    A span's self time is its duration minus the durations of its direct
    children (children never overlap: the harness is one thread)."""
    events = json.loads(Path(trace_path).read_text())["traceEvents"]
    reps = {}
    for e in events:
        if e.get("ph") == "X":
            reps.setdefault(e["args"]["rep"], {})[e["args"]["id"]] = e
    out = []
    for spans in reps.values():
        child_sum = {}
        for e in spans.values():
            p = e["args"]["parent"]
            if p >= 0:
                child_sum[p] = child_sum.get(p, 0.0) + e["dur"]
        selfs = {}
        for i, e in spans.items():
            selfs.setdefault(e["name"], []).append((e["dur"] - child_sum.get(i, 0.0)) * 1e-6)
        out.append(selfs)
    return out


def check(result, reference, invariants, inv_rc):
    """Return (attempted, failed, messages) over every repetition and pass."""
    msgs = []
    reps = result["reps"]
    failed = 0
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    for group, label in ((plain, "plain"), (traced, "traced")):
        for i, r in enumerate(group):
            bad = []
            if not r["complete"]:
                bad.append("workload did not complete")
            if r["digest"] != group[0]["digest"]:
                bad.append("digest %s != first %s repetition's %s"
                           % (r["digest"], label, group[0]["digest"]))
            if bad:
                failed += 1
                msgs.append("%s repetition %d: %s" % (label, i, "; ".join(bad)))
    # Slicing sim.run changes the sharded engine's window plan, and with it
    # the order of equal-time events on lossy workloads; on the serial
    # engine traced and plain repetitions must agree exactly.
    if traced and plain and result["shards"] == 1 and traced[0]["digest"] != plain[0]["digest"]:
        failed += len(traced)
        msgs.append("traced digest %s != plain digest %s"
                    % (traced[0]["digest"], plain[0]["digest"]))
    ref_ok = (reference is not None and reference["complete"]
              and reference["ref_digest"] == plain[0]["ref_digest"])
    if not ref_ok:
        failed += 1
        msgs.append("scenario entry point: %s" % (
            "did not run" if reference is None else
            "digest %s != layer-built %s (complete=%s)"
            % (reference["ref_digest"], plain[0]["ref_digest"], reference["complete"])))
    inv_ok = (inv_rc == 0 and invariants is not None and invariants["complete"]
              and invariants["violations"] == 0
              and (result["workload"] != "storm_churn" or invariants["checkpoints"] > 0))
    if not inv_ok:
        failed += 1
        msgs.append("invariant pass failed (exit %s)" % inv_rc)
    return len(reps) + 2, failed, msgs


def end_to_end(result):
    plain = [r for r in result["reps"] if not r["traced"]]
    return {
        "setup_s": median([r["setup_s"] for r in plain]),
        "run_s": median([r["run_s"] for r in plain]),
        "wall_s": median([r["wall_s"] for r in plain]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result, trace_path):
    reps = result["reps"]
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    values = {}
    for key in plain[0]["counts"]:
        values[key] = median([r["counts"][key] for r in plain])
    for key in traced[0]["counts"]:
        values.setdefault(key, median([r["counts"][key] for r in traced]))
    events = values.get("sim.events", 0.0)
    values["sim.ns_per_event"] = median(
        [r["run_s"] * 1e9 / events for r in plain]) if events else 0.0

    per_rep = self_times(trace_path)
    spans = {}
    for selfs in per_rep:
        for name, xs in selfs.items():
            spans.setdefault(name, []).append(sum(xs))
    for name in LAYER_SPANS:
        if name != "sim.run":  # its time is run_s; its slices are reported below
            values[name + "_s"] = median(spans.get(name, []))
    slices = [x * 1e3 for selfs in per_rep for x in selfs.get("sim.slice", [])]
    values["sim.slice_ms_p50"] = percentile(slices, 50)
    values["sim.slice_ms_p99"] = percentile(slices, 99)
    values["sim.slice_samples"] = float(len(slices))
    values["trace.overhead"] = (median([r["wall_s"] for r in traced])
                                / median([r["wall_s"] for r in plain]))
    return values, spans


def print_layer_table(spans, values, result):
    plain = [r for r in result["reps"] if not r["traced"]]
    walls = [r["wall_s"] for r in result["reps"] if r["traced"]]
    base = median(walls)
    say("per-layer self time, traced repetitions (n=%d), base = median traced rep wall %.4f s"
        % (len(walls), base))
    say("  %-16s %12s %8s" % ("span", "self s", "share"))
    for name in ("rep",) + LAYER_SPANS + ("sim.slice",):
        xs = spans.get(name, [])
        if xs:
            m = median(xs)
            say("  %-16s %12.6f %7.2f%%" % (name + (" (self)" if name == "rep" else ""),
                                             m, 100.0 * m / base))
    c = plain[0]["counts"]
    say("ratios with their bases (plain repetition 0):")
    say("  net.drop_ratio    = %.6g  (drops %d / offered %d per hop)"
        % (values["net.drop_ratio"], c["net.drops"], c["net.drops"] + c["net.pkts"]))
    say("  sim.ns_per_event  = %.6g  (median run_s / sim.events %d)"
        % (values["sim.ns_per_event"], c["sim.events"]))
    say("  trace.overhead    = %.6g  (median traced rep wall / median plain rep wall)"
        % values["trace.overhead"])
    say("  shard.stall_frac  = %.6g  (summed barrier stall / (shards %d x run wall))"
        % (values["shard.stall_frac"], result["shards"]))
    say("  sim.slice_ms p50/p99 = %.4g / %.4g ms over %d slices"
        % (values["sim.slice_ms_p50"], values["sim.slice_ms_p99"], values["sim.slice_samples"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "quick"), default="full")
    ap.add_argument("--corrupt-digest", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        raise BenchError("--seed must be >= 0 and --seconds > 0")

    for knob in PATH_KNOBS:
        if os.environ.get(knob):
            raise BenchError("%s is set: it changes the code path being timed; "
                             "refusing to report timings" % knob)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build()
    knobs = {k: v for k, v in sorted(os.environ.items()) if k.startswith(("TRIM_", "REPRO_"))}
    base = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
            "--scale", args.scale]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / ("perfbench_%s_seed%d.trace.json" % (args.workload, args.seed))

    cmd = base + ["--seconds", repr(args.seconds),
                  "--mode", "traced" if args.trace else "timed"]
    if args.trace:
        cmd += ["--trace-out", str(trace_path)]
    if args.corrupt_digest:
        cmd.append("--corrupt-digest")
    steal0, total0 = cpu_ticks()
    rc, result = finish_child(start_child(cmd, clean_env()))
    steal1, total1 = cpu_ticks()
    if rc != 0 or result is None:
        raise BenchError("measured run failed (exit %s)" % rc)
    # The checks run after the measured process has exited, so they neither
    # contend with it nor count in its peak RSS; they run side by side.
    ref_proc = start_child(base + ["--mode", "reference"], clean_env())
    inv_proc = start_child(base + ["--mode", "invariants"],
                           clean_env({"TRIM_CHECK_INVARIANTS": "1"}))
    _, reference = finish_child(ref_proc)
    inv_rc, invariants = finish_child(inv_proc)
    attempted, failed, msgs = check(result, reference, invariants, inv_rc)

    say("perfbench %s seed=%d scale=%s trace=%d: hw_threads=%d shards=%d scheduler=%s "
        "sync=%s build=%s git=%s src=%s env=%s"
        % (args.workload, args.seed, args.scale, args.trace, result["hw_threads"],
           result["shards"], result["scheduler"], result["sync"], result["build_type"],
           git_sha(), source_digest(), json.dumps(knobs)))
    say("host steal during the measured run: %.2f%% of CPU time (%d of %d ticks)"
        % (100.0 * (steal1 - steal0) / max(1, total1 - total0), steal1 - steal0,
           total1 - total0))
    say("simulated outputs (checks, never scored): %s events=%d"
        % (json.dumps(result["outputs"]), result["events"]))
    for m in msgs:
        say("CHECK FAILED:", m)
    say("fail_frac = %d/%d = %.4f" % (failed, attempted, failed / attempted))

    plain = [r for r in result["reps"] if not r["traced"]]
    for key in ("setup_s", "run_s", "wall_s"):
        xs = [r[key] for r in plain]
        say("%-8s median %.6f s  min %.6f  max %.6f  (n=%d plain repetitions)"
            % (key, median(xs), min(xs), max(xs), len(xs)))
    if args.trace:
        values, spans = per_layer(result, trace_path)
        print_layer_table(spans, values, result)
        say("trace written to %s" % trace_path.relative_to(ROOT))
    else:
        values = end_to_end(result)

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            raise BenchError("metric %s is not measured" % m["name"])
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    for name, m in metrics.items():
        say("  %-24s %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log("perfbench: %s" % e)
        sys.exit(2)
