#!/usr/bin/env python3
"""Say whether two runs produced the same outputs.

    report_diff.py A B

A and B are two REPORT_*.json files, or two directories of them (a
bench's BENCH_JSON_DIR). Directory reports are paired by file name; a
report present on one side only is a difference.

Every top-level section of a report is compared exactly, except the
wall-clock and host fields: `perf`, `profile`, `peak_rss_bytes` and
`hw_threads`. For each report that differs, the first differing JSON path
is printed with both values.

Exit status: 0 = every report equal, 1 = a difference, 2 = bad invocation
(a missing path, a file against a directory, unreadable JSON, or no
reports at all).
"""

import argparse
import json
import re
import sys
from pathlib import Path

IGNORED = ("perf", "profile", "peak_rss_bytes", "hw_threads")
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class BadInvocation(Exception):
    pass


def child(path, key):
    if isinstance(key, int):
        return f"{path}[{key}]"
    if IDENTIFIER.match(key):
        return f"{path}.{key}" if path else key
    return f"{path}[{json.dumps(key)}]"


def first_difference(a, b, path=""):
    """The first (path, a, b) at which a and b differ, or None."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            if key not in b:
                return child(path, key), a[key], "<missing>"
            if key not in a:
                return child(path, key), "<missing>", b[key]
            diff = first_difference(a[key], b[key], child(path, key))
            if diff:
                return diff
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            diff = first_difference(x, y, child(path, i))
            if diff:
                return diff
        if len(a) != len(b):
            return f"{path or '$'} length", len(a), len(b)
        return None
    # bool is an int in Python; true must not equal 1.
    if type(a) is bool or type(b) is bool:
        return None if type(a) is type(b) and a == b else (path or "$", a, b)
    return None if a == b else (path or "$", a, b)


def load(path):
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        raise BadInvocation(f"{path}: {e}")
    if not isinstance(doc, dict):
        raise BadInvocation(f"{path}: not a run report (top level is not an object)")
    return {k: v for k, v in doc.items() if k not in IGNORED}


def pairs(a, b):
    """(name, path in A or None, path in B or None) for every report."""
    if a.is_file() and b.is_file():
        return [(a.name if a.name == b.name else f"{a.name} vs {b.name}", a, b)]
    if a.is_dir() and b.is_dir():
        left = {p.name: p for p in a.glob("REPORT_*.json")}
        right = {p.name: p for p in b.glob("REPORT_*.json")}
        if not left and not right:
            raise BadInvocation(f"no REPORT_*.json in {a} or {b}")
        return [(n, left.get(n), right.get(n)) for n in sorted(left.keys() | right.keys())]
    for p in (a, b):
        if not p.exists():
            raise BadInvocation(f"{p}: no such file or directory")
    raise BadInvocation(f"{a} and {b}: compare two files or two directories")


def compare(a, b, out=sys.stdout):
    """Prints one line per differing report; returns the count differing."""
    differing = 0
    reports = pairs(Path(a), Path(b))
    for name, left, right in reports:
        if left is None or right is None:
            side = "A" if left is None else "B"
            print(f"{name}: missing in {side}", file=out)
            differing += 1
            continue
        diff = first_difference(load(left), load(right))
        if diff:
            path, x, y = diff
            print(f"{name}: {path}: {json.dumps(x)} != {json.dumps(y)}", file=out)
            differing += 1
    if differing == 0:
        print(f"{len(reports)} report(s) equal outside {', '.join(IGNORED)}", file=out)
    return differing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", help="report file or directory of reports")
    parser.add_argument("b", help="report file or directory of reports")
    args = parser.parse_args(argv)
    try:
        return 1 if compare(args.a, args.b) else 0
    except BadInvocation as e:
        print(f"report_diff: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
