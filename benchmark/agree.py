#!/usr/bin/env python3
"""Compares two sets of benchmark results against the bounds in BENCHMARK.json.

    python3 benchmark/agree.py BASE_DIR NEW_DIR

Each directory holds aqsios-benchmark/1 reports (aqsios_bench --out; run.py
keeps them in build-bench/results/). For every workload and end-to-end
metric it compares the median of NEW's reported values against the median of
BASE's. The run-to-run spread of a set is the distance between the first and
third quartiles of its reported values over their median; a set with one
report of the workload takes the spread of that report's repetitions
instead (none for values measured once or per input). One row per pair:

    ok          NEW is not worse than BASE by more than the bound
    worse       NEW is worse by more than the bound
    unresolved  the wider of the two spreads exceeds the bound, and not every
                NEW value beats every BASE value
    missing     one set has no value for the pair (workloads absent from
                both sets are skipped)

Exits 1 on any worse or missing pair, or on a report whose checks failed.
"""

import json
import pathlib
import statistics
import sys

SCHEMA = "aqsios-benchmark/1"
BENCHMARK = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory):
    """Returns ({workload: {metric: [report dicts]}}, [failed report paths])."""
    metrics = {}
    failed = []
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        try:
            report = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if not isinstance(report, dict) or report.get("schema") != SCHEMA:
            continue
        if not report.get("correct", False):
            failed.append(str(path))
        by_name = metrics.setdefault(report["workload"], {})
        for name, metric in report.get("end_to_end", {}).items():
            by_name.setdefault(name, []).append(metric)
    return metrics, failed


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def set_spread(reports):
    if len(reports) > 1:
        return spread([r["value"] for r in reports])
    # One report: only timings vary from run to run; values over the inputs
    # of the seed are the same in every run.
    if reports[0].get("over") == "repetition":
        return spread(reports[0]["values"])
    return 0.0


def compare(base, new, better, bound):
    """Returns (verdict, relative change where positive means worse, spread)."""
    if not base or not new:
        return "missing", 0.0, 0.0
    b = [r["value"] for r in base]
    n = [r["value"] for r in new]
    base_median = statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = (sign * (statistics.median(n) - base_median) / abs(base_median)
                if base_median else 0.0)
    wider = max(set_spread(base), set_spread(new))
    all_better = max(n) < min(b) if better == "lower" else min(n) > max(b)
    if wider > bound and not all_better:
        return "unresolved", worse_by, wider
    return ("worse" if worse_by > bound else "ok"), worse_by, wider


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    spec = json.loads(BENCHMARK.read_text())
    base, base_failed = load(argv[1])
    new, new_failed = load(argv[2])
    status = 0
    for path in base_failed + new_failed:
        print(f"failed checks: {path}")
        status = 1
    workloads = [w["name"] for w in spec["workloads"]
                 if w["name"] in base or w["name"] in new]
    if not workloads:
        sys.exit(f"agree.py: no {SCHEMA} reports in {argv[1]} or {argv[2]}")
    print(f"{'workload':16} {'metric':16} {'base':>14} {'new':>14} "
          f"{'worse_by':>9} {'bound':>6} {'spread':>7}  verdict")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = base.get(workload, {}).get(name, [])
            n = new.get(workload, {}).get(name, [])
            verdict, worse_by, wider = compare(b, n, metric["better"],
                                               metric["bound"])
            if verdict in ("worse", "missing"):
                status = 1
            medians = [f"{statistics.median(r['value'] for r in s):14.6g}"
                       if s else f"{'-':>14}" for s in (b, n)]
            print(f"{workload:16} {name:16} {medians[0]} {medians[1]} "
                  f"{worse_by:+9.2%} {metric['bound']:6.0%} {wider:7.2%}  "
                  f"{verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
