#!/usr/bin/env python3
"""Builds the benchmark from this checkout and runs one workload.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds benchmark/ (CMake, Release) into build-bench/ at the
checkout root, then runs build-bench/aqsios_bench with the same arguments
(see benchmark/README.md). Build output goes to stderr, so stdout carries
only the benchmark's lines, ending with its one-line JSON result. The full
aqsios-benchmark/1 report of each run is kept in build-bench/results/.
"""

import argparse
import pathlib
import signal
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / "build-bench"


def run(command, **kwargs):
    """Runs `command` to completion; stops it if this script is stopped."""
    process = subprocess.Popen(command, **kwargs)
    try:
        return process.wait()
    finally:
        if process.poll() is None:
            process.terminate()
            process.wait()


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("run.py: no library sources in src/; run from a full checkout")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "benchmark"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "aqsios_bench",
                  "-j", "4"])
    for step in steps:
        if run(step, stdout=sys.stderr) != 0:
            sys.exit("run.py: build failed: " + " ".join(step))


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", default="42")
    parser.add_argument("--trace", default="0")
    known, rest = parser.parse_known_args()
    build()
    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{known.workload}-seed{known.seed}-trace{known.trace}.json"
    sys.exit(run([str(BUILD / "aqsios_bench"), "--workload", known.workload,
                  "--seed", known.seed, "--trace", known.trace, *rest,
                  "--out", str(out)]))


if __name__ == "__main__":
    main()
