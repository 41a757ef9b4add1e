#!/usr/bin/env python3
"""Builds and runs the end-to-end detection benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The first call configures and builds the
simulator libraries and the benchmark binary (Release) into .bench_build/;
later calls only rebuild what changed. The binary's output is passed
through; its last line is the JSON result. Build output goes to stderr.
Exits non-zero, printing no result, if the build or the run fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=880)
        if done.returncode != 0:
            return False
    return True


def main(argv):
    smoke = "--smoke" in argv
    seconds = 10.0
    if "--seconds" in argv:
        seconds = float(argv[argv.index("--seconds") + 1])
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        done = subprocess.run([BINARY] + argv, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=seconds + 120, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    if smoke:
        print("\n".join(lines))
        return done.returncode
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if done.returncode != 0 or not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print("\n".join(lines[:-1]), file=sys.stderr)
        print("perfbench: run failed", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
