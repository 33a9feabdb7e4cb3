#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload paper64|reproduce|rerun \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The simulator libraries and the
benchmark program are built from source (Release) into
.bench_build/perfbench; build output goes to stderr. The program's
stdout is passed through unchanged: its last line is the result JSON.
Exits 2 without a result when the checkout holds no simulator sources
or the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "harness",
                                       "experiment.hh")):
        fail(f"no simulator sources under {ROOT}/src")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(os.cpu_count() or 1, 4))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build chatter must not reach stdout, whose last line is the
        # result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=840).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["paper64", "reproduce", "rerun"])
    ap.add_argument("--seed", type=int, default=7,
                    help="campaign seed (default 7; the app profiles "
                         "were calibrated at seed 1)")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build()
    work = os.path.join(BUILD, "work")
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", work]
    sys.stdout.flush()
    return subprocess.run(cmd, timeout=170).returncode


if __name__ == "__main__":
    sys.exit(main())
