#!/usr/bin/env python3
"""Builds the benchmark and runs one workload.

    python3 perfbench/run.py --workload strategies_909 --seed 1 --seconds 30 --trace 0

Run from the repository root. The first call configures an optimised build
of perfbench/ (which compiles the library from src/) under .bench_build/;
later calls rebuild only what changed. Build output goes to standard error,
so the last line of standard output is the benchmark's JSON result. The
exit status is the benchmark's, or 1 when the build fails.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "perfbench"

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S, check=False)
        if result.returncode != 0:
            print(f"run.py: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        if not build():
            return 1
    except (OSError, subprocess.TimeoutExpired) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 1
    scratch = BUILD_ROOT / "scratch" / f"run-{os.getpid()}"
    command = [str(BUILD / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scratch", str(scratch)]
    if args.trace:
        spans = BUILD_ROOT / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        spans_file = spans / f"{args.workload}-{args.seed}.jsonl"
        spans_file.unlink(missing_ok=True)
        command += ["--spans", str(spans_file)]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S,
                              check=False).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
