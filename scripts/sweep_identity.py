#!/usr/bin/env python3
"""Checks that two aqsios-bench-sweep/1 reports carry identical results.

Usage: sweep_identity.py EXPECTED.json ACTUAL.json

The sweep's results are a pure function of its inputs (the determinism
contract), so a fresh bench_sweep_all run must reproduce the committed
BENCH_sweep.json exactly. Only the host-dependent fields may differ: the
worker thread count and the wall-clock and memory readings (`threads`,
`wall_ms`, `max_rss_kb`, `total_wall_ms`), which are dropped at every level
before comparing. Exits 0 when the reports match, 1 (listing up to 20
differing paths) when they do not, 2 on bad usage or unreadable input.
"""

import json
import sys

IGNORED = {"threads", "wall_ms", "max_rss_kb", "total_wall_ms"}


def strip(value):
    if isinstance(value, dict):
        return {k: strip(v) for k, v in value.items() if k not in IGNORED}
    if isinstance(value, list):
        return [strip(v) for v in value]
    return value


def diff(a, b, path, out):
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                out.append(f"{path}/{key}: present in only one report")
            else:
                diff(a[key], b[key], f"{path}/{key}", out)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append(f"{path}: {len(a)} vs {len(b)} elements")
        for i, (x, y) in enumerate(zip(a, b)):
            diff(x, y, f"{path}[{i}]", out)
    elif a != b:
        out.append(f"{path}: {a!r} vs {b!r}")


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        expected, actual = (strip(json.load(open(p))) for p in argv[1:])
    except (OSError, ValueError) as error:
        print(f"sweep_identity: {error}", file=sys.stderr)
        return 2
    differences = []
    diff(expected, actual, "", differences)
    if differences:
        print(f"sweep_identity: {len(differences)} differing values")
        for line in differences[:20]:
            print("  " + line)
        return 1
    print("sweep_identity: reports match")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
