#!/usr/bin/env python3
"""Build and run the host-time benchmark.

    python3 hostbench/run.py --workload cold-paper --seed 1 --seconds 55

Run from the repository root. Builds hostbench/ (which compiles the
simulator from ../src) into .bench_build/hostbench, runs the driver, and
passes its standard output through; the last line is the JSON result.
Build output goes to stderr. Exits non-zero, printing no result, when the
build or the driver fails.

--record rewrites hostbench/reference.json's digests for the workload;
use it only with --seed 42 after a change that is meant to move the
simulated statistics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
WORKLOADS = ("cold-paper", "stream-closed")
DRIVER_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "hostbench", "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"hostbench: build step failed: {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        sys.exit("hostbench: --seed must be >= 0 and --seconds >= 1")

    build()
    cmd = [
        os.path.join(BUILD, "hostbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--reference", os.path.join(HERE, "reference.json"),
        "--baseline", os.path.join(ROOT, "BENCH_baseline.json"),
        "--spans",
        os.path.join(BUILD, f"spans-{args.workload}-{args.seed}.json"),
    ]
    if args.record:
        cmd.append("--record")
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"hostbench: driver exceeded {DRIVER_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        sys.exit(f"hostbench: driver exited with {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(done.stdout)
        sys.exit("hostbench: driver printed no result line")
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
