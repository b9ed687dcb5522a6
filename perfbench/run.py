#!/usr/bin/env python3
"""Builds the stream-reasoning benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload traffic|reach-sliding|tenants \
        --seed N --seconds S --trace 0|1

The engine is compiled from ../src with CMake (Release) into the build
directory named by CARGO_TARGET_DIR, default .bench_build, under the
repository root. Build output goes to standard error; standard output
carries the benchmark's diagnostics and, as its last line, the JSON result.
A traced run (--trace 1) also writes its spans to
<build dir>/spans/<workload>-seed<N>.json.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("traffic", "reach-sliding", "tenants")
# A run measures for --seconds and then checks windows against the oracle;
# stop it well inside the three-minute limit a run has.
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "streamrule", "engine.h")):
        sys.exit("perfbench: engine sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, build_root)
    binary = build(os.path.join(build_root, "perfbench"))

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(build_root, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
