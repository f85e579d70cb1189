#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mttdl_figure --seed 1 --seconds 20 --trace 0

The first run configures and builds the library, the sweep_worker tool and
the benchmark program into .bench_build/perfbench (Release, the repository's
own CMakeLists); later runs only check that build is up to date. The last
line of standard output is the benchmark's JSON result; build output goes to
standard error. Exits non-zero, without a result, when the build or the run
fails. See perfbench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("mttdl_figure", "archive_fleet", "frontier_cold", "frontier_warm")
# The benchmark's own loop stops by 120 s even on a slow host; this is the
# backstop for a hung process.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_build" / "out"


def run_group(command, timeout, stdout):
    """Runs `command` in its own process group and waits for it; on timeout
    kills the whole group (the fleet's worker processes included). Returns the
    exit code, or None when the command could not run or timed out."""
    try:
        process = subprocess.Popen(command, cwd=ROOT, stdout=stdout,
                                   start_new_session=True)
    except OSError as error:
        print(f"perfbench: cannot run {command[0]}: {error}", file=sys.stderr)
        return None
    try:
        return process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        print(f"perfbench: {command[0]} timed out after {timeout} s", file=sys.stderr)
        return None


def build(targets):
    """Configures (once) and builds `targets`; returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target", *targets])
    for step in steps:
        if run_group(step, BUILD_TIMEOUT_S, sys.stderr) != 0:
            print(f"perfbench: build step failed: {' '.join(step)}", file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not build(["perfbench"]):
        return 1
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    command = [str(BUILD_DIR / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", args.trace, "--out-dir", str(OUT_DIR)]
    sys.stdout.flush()
    code = run_group(command, RUN_TIMEOUT_S, None)
    return 1 if code is None else code


if __name__ == "__main__":
    sys.exit(main())
