#!/usr/bin/env python3
"""Repository benchmark entry point.

Usage (from the repository root):

    python3 perfbench/run.py --workload <dnn_graph|serve_mix> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the flextensor library and the harness from source with CMake into
.bench_build/perfbench (an incremental no-op once built), runs the harness
for one workload, checks the shape of its result and prints it as the last
line of standard output. Workloads are described in BENCHMARK.json and in
perfbench/workloads.cc; per-layer metrics in perfbench/harness.cc.

Exits nonzero without printing a result when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("dnn_graph", "serve_mix")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
HARNESS = os.path.join(BUILD_DIR, "perfbench-harness")
# Parallel compile jobs: the machine is shared, keep the build small.
BUILD_JOBS = min(4, os.cpu_count() or 1)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout):
    """Run a build step with its output sent to stderr."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return -1


def build(root):
    source = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found; run from the repository root")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", source, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if run_quiet(configure, 300) != 0:
            fail("cmake configure failed")
    if run_quiet(["cmake", "--build", BUILD_DIR, "--parallel",
                  str(BUILD_JOBS)], 840) != 0:
        fail("build failed")


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("harness printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("unexpected result keys: %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("no request was attempted")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"}:
            fail("metric %s is malformed" % name)
    if not trace and "setup_s" not in result["metrics"]:
        fail("setup_s missing from an end-to-end result")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.getcwd()
    build(root)
    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness timed out after %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("harness exited with code %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("harness printed nothing")
    check_result(lines[-1], args.trace)
    print(lines[-1])


if __name__ == "__main__":
    main()
