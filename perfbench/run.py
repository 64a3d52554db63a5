#!/usr/bin/env python3
"""Builds and runs the lpfps repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Workloads: sweep, paper-sims, admission-churn (see BENCHMARK.json).
--trace 1 runs the traced variant, which reports the per-layer metrics
and writes its spans to <build dir>/traces/<workload>-seed<n>.json.

The first run configures and builds perfbench/CMakeLists.txt (the lpfps
library from src/ plus the driver) in Release mode under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
only rebuild what changed.  Build output goes to stderr, so the last
line on stdout is always the driver's JSON result.  --smoke and
--corrupt-digest pass through to the driver (the self-test uses them).
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep", "paper-sims", "admission-churn")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_quiet(command, timeout):
    """Runs a build step with its output on stderr; fails on error."""
    try:
        subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                       check=True, timeout=timeout)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as error:
        fail(f"build step failed: {error}")


def build(build_dir):
    source_dir = os.path.join(BENCH_DIR, os.pardir)
    if not os.path.isfile(os.path.join(source_dir, "src", "CMakeLists.txt")):
        fail("no lpfps sources next to perfbench/; run from a full checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", build_dir, "-j", jobs,
               "--target", "lpfps_perfbench"], BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "lpfps_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--corrupt-digest", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    driver = build(build_dir)

    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    if args.smoke:
        command.append("--smoke")
    if args.corrupt_digest:
        command.append("--corrupt-digest")
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
