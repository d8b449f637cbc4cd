#!/usr/bin/env python3
"""Samples where a program spends its CPU time and symbolizes the samples.

Usage: sigprof_report.py [--top N] [--keep PATH] -- CMD [ARG...]
       sigprof_report.py [--top N] --samples PATH

The first form compiles scripts/sigprof_sampler.c into a temporary shared
object, runs CMD with it in LD_PRELOAD (a SIGPROF handler records the
interrupted program counter about once per millisecond of CPU time), and
reports the samples; --keep saves the raw sample file. The second form
reports a sample file written earlier by the sampler (`sigprof.<pid>.out`).

The report resolves every sample with `addr2line -f -C -i` against the
object it fell in, and prints two tables, each sorted by share of all
samples: functions (the innermost function at the sampled address, inlined
ones included, so an inlined kernel shows under its own name) and source
lines (file:line of the same frame). Line numbers need a `-g` build, such as
the benchmark configured with `-DCMAKE_CXX_FLAGS=-g`; without one the line
table is left out and the functions come from the symbol table.

Exits 0 when at least one sample fell in CMD's own binary and resolved to a
function there, 1 otherwise (no samples, no addr2line, or CMD failed), and 2
on a usage error.
"""

import argparse
import collections
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

SAMPLER_SOURCE = pathlib.Path(__file__).resolve().parent / "sigprof_sampler.c"


def build_sampler(directory):
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        raise RuntimeError("no C compiler (cc or gcc) on PATH")
    shared = os.path.join(directory, "sigprof_sampler.so")
    subprocess.run([compiler, "-O2", "-shared", "-fPIC", "-o", shared,
                    str(SAMPLER_SOURCE)], check=True)
    return shared


def record(command, keep):
    """Runs `command` under the sampler; returns the sample file's text."""
    with tempfile.TemporaryDirectory() as directory:
        shared = build_sampler(directory)
        env = dict(os.environ)
        preload = env.get("LD_PRELOAD")
        env["LD_PRELOAD"] = shared + (" " + preload if preload else "")
        child = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL)
        status = child.wait()
        path = pathlib.Path(f"sigprof.{child.pid}.out")
        if status != 0:
            path.unlink(missing_ok=True)
            raise RuntimeError(f"{command[0]} exited with status {status}")
        if not path.exists():
            raise RuntimeError(f"{command[0]} left no {path} (did it exit "
                               "normally and in this directory?)")
        text = path.read_text()
        if keep:
            shutil.move(str(path), keep)
        else:
            path.unlink()
        return text


def parse(text):
    """Returns (objects, pcs, lost): objects as (path, bias, lo, hi)."""
    objects, pcs, lost = [], [], 0
    for number, line in enumerate(text.splitlines(), 1):
        kind, _, rest = line.partition(" ")
        if kind == "pc":
            pcs.append(int(rest, 16))
        elif kind == "object":
            path, bias, lo, hi = rest.rsplit(" ", 3)
            objects.append((path, int(bias, 16), int(lo, 16), int(hi, 16)))
        elif kind == "sigprof":
            fields = rest.split()
            lost = int(fields[fields.index("lost") + 1])
        else:
            raise ValueError(f"sample file line {number}: {line!r}")
    return objects, pcs, lost


def symbolize(path, addresses):
    """Maps each ELF address in `path` to its innermost (function, line)."""
    unique = sorted(set(addresses))
    if not unique:
        return {}
    result = subprocess.run(
        ["addr2line", "-a", "-f", "-C", "-i", "-e", path]
        + [hex(a) for a in unique],
        capture_output=True, text=True, check=True)
    frames = {}
    lines = result.stdout.splitlines()
    i = 0
    # `-a` prints each address, then one (function, file:line) pair per
    # inlining level, innermost first; the first pair is the sampled frame.
    while i < len(lines):
        address = int(lines[i], 16)
        frames[address] = (lines[i + 1], lines[i + 2])
        i += 3
        while i < len(lines) and not lines[i].startswith("0x"):
            i += 2
    return frames


def report(text, top, main_binary=None):
    objects, pcs, lost = parse(text)
    if not pcs:
        print("no samples recorded")
        return 1
    by_object = collections.defaultdict(list)
    unmapped = 0
    for pc in pcs:
        for obj in objects:
            if obj[2] <= pc < obj[3]:
                by_object[obj].append(pc - obj[1])
                break
        else:
            unmapped += 1
    functions = collections.Counter()
    source_lines = collections.Counter()
    main_resolved = 0
    main_path = main_binary or (objects[0][0] if objects else None)
    for (path, _, _, _), addresses in by_object.items():
        frames = symbolize(path, addresses)
        name = os.path.basename(path)
        for address in addresses:
            function, where = frames.get(address, ("??", "??:0"))
            functions[f"{function}  [{name}]"] += 1
            source_lines[where.split(" (discriminator")[0]] += 1
            if path == main_path and function != "??":
                main_resolved += 1
    total = len(pcs)
    print(f"{total} samples ({lost} lost past the buffer, {unmapped} outside "
          f"any mapped object)")
    tables = [("function", functions)]
    if any(not where.startswith("??") and not where.endswith((":?", ":0"))
           for where in source_lines):
        tables.append(("line", source_lines))
    for title, counter in tables:
        print(f"\n{'share':>7} {'samples':>8}  {title}")
        for key, count in counter.most_common(top):
            print(f"{100.0 * count / total:6.1f}% {count:8d}  {key}")
    if main_resolved == 0:
        print(f"\nno sample resolved to a function in {main_path}")
        return 1
    return 0


def main():
    argv = sys.argv[1:]
    command = []
    if "--" in argv:
        split = argv.index("--")
        argv, command = argv[:split], argv[split + 1:]
    parser = argparse.ArgumentParser(
        description="Samples where a program spends its CPU time.")
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--keep", help="save the raw sample file here")
    parser.add_argument("--samples", help="report this sample file")
    args = parser.parse_args(argv)
    if bool(command) == bool(args.samples):
        parser.error("give either -- CMD [ARG...] or --samples PATH")
    if args.top <= 0:
        parser.error("--top must be positive")
    try:
        if args.samples:
            text = pathlib.Path(args.samples).read_text()
            return report(text, args.top)
        text = record(command, args.keep)
        main_binary = os.path.realpath(shutil.which(command[0]) or command[0])
        return report(text, args.top, main_binary)
    except BrokenPipeError:
        # The reader (say, `head`) closed stdout; nothing is left to report.
        sys.stderr.close()
        return 1
    except (OSError, RuntimeError, ValueError,
            subprocess.CalledProcessError) as error:
        print(f"sigprof_report: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
