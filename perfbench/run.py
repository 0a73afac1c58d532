#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload paper_queries --seed 7 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 40 --trace 1

The first call configures and builds perfbench/ and the library from src/
with CMake into .bench_build/perfbench (later calls only rebuild what
changed). Each workload runs in its own process, so one workload's memory
never shows in another's peak RSS. The last stdout line of a single-workload
call is the JSON result; the exit code is non-zero when the build fails or a
check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["paper_queries", "service_churn"]
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    for attempt in range(2):
        if subprocess.run(configure, stdout=sys.stderr).returncode == 0:
            break
        if attempt == 0 and os.path.isdir(BUILD):
            # A cache from another source location: start clean once.
            shutil.rmtree(BUILD, ignore_errors=True)
            continue
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    made = subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                          stdout=sys.stderr)
    binary = os.path.join(BUILD, "perfbench")
    return binary if made.returncode == 0 and os.path.exists(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="table sizes; below 1 only for the smoke test")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        command = [binary, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds), "--trace", str(args.trace),
                   "--scale", repr(args.scale)]
        try:
            run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                 text=True, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s",
                  file=sys.stderr)
            return 1
        sys.stdout.write(run.stdout)
        sys.stdout.flush()
        if run.returncode != 0:
            print(f"perfbench: {workload} exited with {run.returncode}",
                  file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
