#!/usr/bin/env python3
"""Check that the six benches which used to write BENCH_<name>.json lost no
data when they moved to one REPORT_<name>.json.

Run the benches at the last commit that wrote BENCH_*.json and at this
one, each with its own BENCH_JSON_DIR and the same REPRO_QUICK and
TRIM_SHARDS, then:

    python3 scripts/check_report_port.py OLD_DIR NEW_DIR

For every row the old BENCH_ and REPORT_ files wrote, the new report must
carry every key under the same scenario, in "rows" or in "perf". Every
value in "rows" must equal the old one: exactly where the old REPORT_ file
had it, to six significant digits (all a BENCH_ file held) where only the
BENCH_ file had it. The deterministic sections of the old REPORT_ file
must be unchanged.

Renames: engine_shard's old `events_per_sec` is the perf row's
`items_per_sec`, and the per-row `hw_threads` is the report header's. A
BENCH_ row's `items_per_sec` of 0 was a placeholder on rows that measured
no throughput; it is not carried over. Exit status: 0 = no loss, 1 = loss.
"""
import json
import os
import sys

BENCHES = ["conn_storm", "resilience", "engine_shard", "fig08_large_scale",
           "memory", "flow_datapath"]
ALIASES = {"events_per_sec": "items_per_sec"}
SECTIONS = ["scalars", "metrics", "events", "episodes", "flows_truncated", "flows"]


def load(path):
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def check(name, old_dir, new_dir):
    new = load(os.path.join(new_dir, f"REPORT_{name}.json"))
    if new is None:
        return [f"{name}: no new REPORT_{name}.json"]
    rows = {r["scenario"]: r for r in new["rows"]}
    perf = {r["scenario"]: r for r in new["perf"]}
    errors = []
    for prefix, rows_key, exact in (("BENCH", "results", False), ("REPORT", "rows", True)):
        old = load(os.path.join(old_dir, f"{prefix}_{name}.json"))
        if old is None:
            continue
        if prefix == "REPORT":
            errors += [f"{name}: section {s} differs" for s in SECTIONS if old[s] != new[s]]
        for old_row in old[rows_key]:
            scenario = old_row["scenario"]
            for key, value in old_row.items():
                key = ALIASES.get(key, key)
                if key == "scenario" or (key == "items_per_sec" and value == 0):
                    continue
                if key == "hw_threads":
                    if new.get("hw_threads") != value:
                        errors.append(f"{name}: header hw_threads != {value}")
                elif key in rows.get(scenario, {}):
                    got = rows[scenario][key]
                    if (got != value) if exact else (f"{got:.6g}" != f"{value:.6g}"):
                        errors.append(f"{name}/{scenario}: {key} {got} != {value}")
                elif key not in perf.get(scenario, {}):
                    errors.append(f"{name}/{scenario}: {prefix} key {key} missing")
    return errors


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    errors = [e for name in BENCHES for e in check(name, sys.argv[1], sys.argv[2])]
    for e in errors:
        print(e)
    print(f"{len(BENCHES)} benches checked, {len(errors)} problems")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
