#!/usr/bin/env python3
"""Builds the QWM benchmark from source and runs one workload.

Usage (from the repository root):

    python3 qwmbench/run.py --workload grid_sta|tree_sta|decoder_serve \
        --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
current directory; traces and the served deck go to <build>/out. The last
line of standard output is the run's result JSON (see README.md).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("grid_sta", "tree_sta", "decoder_serve")


def build(build_dir):
    """Configures (once) and builds qwm_bench and qwm_serve; build output
    goes to stderr so stdout stays the result channel."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            return False
    done = subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "qwm_bench",
         "qwm_serve"],
        stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(build_dir):
        print("qwmbench: build failed", file=sys.stderr)
        return 1
    out_dir = os.path.join(build_dir, "out")
    cmd = [os.path.join(build_dir, "qwm_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", out_dir,
           "--serve-bin", os.path.join(build_dir, "qwm_serve")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
