#!/usr/bin/env python3
"""Runs two aqsios_bench binaries in alternating pairs and compares them.

Usage: ab_pairs.py PARENT_BIN CHANGE_BIN --workload W [--pairs N]
                   [--seconds S] [--scale X] [--seed N] [--trace 0|1]

Pair i runs both binaries on the same arguments back to back, PARENT_BIN
first in even pairs and CHANGE_BIN first in odd ones, so a drift in the
host's speed over the session does not favour either side. For every metric
of the benchmark's one-line JSON result it prints the median and the first
and third quartiles of each side, the change's median relative to the
parent's, and in how many pairs the change was better ("better" is read from
BENCHMARK.json next to this script; a metric it does not list counts higher
as better; ties count for neither side), and a verdict:

  gain        at least ten pairs ran, the change won at least 9 in 10 of
              them, and its median is better than the parent's by more
              than the parent's interquartile distance;
  worse       the change's median is worse than the parent's by more than
              the metric's relative `bound` in BENCHMARK.json;
  unresolved  the parent's own interquartile distance, relative to its
              median, is wider than the bound, and not every change run
              beat every parent run;
  ok          otherwise.

Metrics without a bound are only ever `gain` or `ok`. Last it prints whether
every run reported the same `result_digest`, which the determinism contract
requires of two builds that do not change results.

Exits 0 when every run succeeded and every digest matched, 1 otherwise, and
2 on bad usage.
"""

import argparse
import json
import math
import pathlib
import statistics
import subprocess
import sys

BENCHMARK_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def metric_specs():
    """Metric name -> (higher is better, relative bound or None), from
    BENCHMARK.json."""
    try:
        spec = json.loads(BENCHMARK_JSON.read_text())
    except (OSError, ValueError):
        return {}
    return {m["name"]: (m.get("better") == "higher", m.get("bound"))
            for group in ("end_to_end", "per_layer")
            for m in spec.get(group, [])}


def verdict(parent, change, wins, up, bound):
    """The gain / worse / unresolved / ok reading of one metric's pairs."""
    sign = 1.0 if up else -1.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    if (len(parent) >= 10 and wins >= math.ceil(0.9 * len(parent))
            and sign * (cm - pm) > p3 - p1):
        return "gain"
    if bound is None or pm == 0:
        return "ok"
    if sign * (cm - pm) / abs(pm) < -bound:
        return "worse"
    every_beats = min(sign * c for c in change) > max(sign * p for p in parent)
    if (p3 - p1) / abs(pm) > bound and not every_beats:
        return "unresolved"
    return "ok"


def run_once(binary, args):
    """Runs one benchmark process; returns (metrics, digest) or raises."""
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.scale is not None:
        command += ["--scale", str(args.scale)]
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n"
                           f"{done.stderr.strip()}")
    lines = done.stdout.strip().splitlines()
    digest = None
    for line in lines:
        fields = line.split()
        if len(fields) >= 3 and fields[1] == "result_digest":
            digest = fields[2]
    result = json.loads(lines[-1])
    if not result.get("correct", False):
        raise RuntimeError(f"{' '.join(command)} reported correct=false")
    metrics = {name: entry["value"]
               for name, entry in result.get("metrics", {}).items()}
    return metrics, digest


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds <= 0.0:
        parser.error("--pairs must be >= 1 and --seconds > 0")

    runs = {"parent": [], "change": []}
    digests = set()
    try:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                binary = args.parent if side == "parent" else args.change
                metrics, digest = run_once(binary, args)
                runs[side].append(metrics)
                digests.add(digest)
            print(f"pair {i + 1}/{args.pairs}: arrivals_per_s "
                  f"parent {runs['parent'][-1].get('arrivals_per_s', 0):.1f} "
                  f"change {runs['change'][-1].get('arrivals_per_s', 0):.1f}",
                  file=sys.stderr)
    except (RuntimeError, OSError, ValueError) as error:
        print(f"ab_pairs: {error}", file=sys.stderr)
        return 1

    specs = metric_specs()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"pairs {args.pairs}  seconds {args.seconds}"
          + (f"  scale {args.scale}" if args.scale is not None else ""))
    print(f"{'metric':<28} {'parent q1':>11} {'median':>11} {'q3':>11} "
          f"{'change q1':>11} {'median':>11} {'q3':>11} {'delta':>8} "
          f"{'wins':>6} verdict")
    names = [n for n in runs["parent"][0] if n in runs["change"][0]]
    for name in names:
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        up, bound = specs.get(name, (True, None))
        wins = sum(1 for p, c in zip(parent, change)
                   if (c > p if up else c < p))
        delta = (cm / pm - 1.0) * 100.0 if pm != 0 else 0.0
        reading = verdict(parent, change, wins, up, bound)
        print(f"{name:<28} {p1:>11.5g} {pm:>11.5g} {p3:>11.5g} "
              f"{c1:>11.5g} {cm:>11.5g} {c3:>11.5g} {delta:>+7.2f}% "
              f"{wins:>3}/{args.pairs} {reading}")
    same = len(digests) == 1 and None not in digests
    print("result_digest: " + ("all identical " + next(iter(digests))
                               if same else "DIFFER " + " ".join(
                                   sorted(str(d) for d in digests))))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
