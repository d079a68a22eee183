#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the harness and the program's module
libraries from source into .bench_build/ (Release, once; later runs reuse
the build), runs one workload, and prints its result: the last line of
stdout is one JSON object with keys correct, attempted, failed and metrics.
Progress, the run stamp and any failed output check go to stderr. Each run
also leaves a record under .bench_build/runs/ for perfbench/diff.py.

Exits non-zero, without a result line, when the build fails, the workload
fails an output check, or the harness errors.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
BUILD_JOBS = "4"
# The harness process of one run must finish within this many seconds.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root):
    """Configures and builds the harness; returns the binary path."""
    source = os.path.join(root, "perfbench")
    build_dir = os.path.join(root, BUILD_DIR)
    binary = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no program sources under src/; run from the repository root")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    configure = ["cmake", "-S", source, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.isfile(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for command in (configure,
                    ["cmake", "--build", build_dir, "-j", BUILD_JOBS,
                     "--target", "perfbench"]):
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            sys.stderr.write(result.stdout[-8000:])
            fail("build failed: " + " ".join(command))
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    root = os.getcwd()
    binary = build(root)
    scratch = os.path.join(root, BUILD_DIR, "scratch", str(os.getpid()))
    runs = os.path.join(root, BUILD_DIR, "runs")
    os.makedirs(runs, exist_ok=True)
    record = os.path.join(
        runs, f"{args.workload}-seed{args.seed}-trace{args.trace}-"
        f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--scratch", scratch, "--record", record]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        fail(f"{args.workload} failed (exit {result.returncode})")
    line = json.loads(lines[-1])
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    print(json.dumps(line))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
