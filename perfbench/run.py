#!/usr/bin/env python3
"""Build and run the two-clock benchmark for one workload.

    python3 perfbench/run.py --workload tile_read --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
simulator and the benchmark under .bench_build/perfbench (CMake, Release),
then runs the tests of the benchmark's measuring code; later runs only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("tile_read", "flash_write", "meta_storm")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail(f"'{' '.join(cmd)}' exited with {result.returncode}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "pfs", "cluster.h")):
        fail(f"simulator sources not found under {os.path.join(ROOT, 'src')}")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD_DIR, "-j", jobs])
    test = os.path.join(BUILD_DIR, "measure_test")
    if os.path.isfile(test):
        run_quiet([test, "--gtest_brief=1"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build()
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(BUILD_DIR, f"spans-{args.workload}.jsonl")
        cmd += ["--spans-out", spans]
    sys.stdout.flush()
    # The timed loop may overshoot by one pass, and the checks run after it.
    timeout_s = 2 * args.seconds + 120
    try:
        result = subprocess.run(cmd, cwd=ROOT, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {timeout_s} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
