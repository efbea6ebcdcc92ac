#!/usr/bin/env python3
"""Builds the serve benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload path-ah|hot-hl|fleet-ch \
        --seed N --seconds S --trace 0|1

The benchmark is its own CMake project (perfbench/CMakeLists.txt) that
compiles the program from src/. It is built into $CARGO_TARGET_DIR (default
.bench_build) under the repository root; later runs rebuild only what
changed. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "server", "server_stack.h")):
        sys.exit("perfbench: no program sources under %s/src" % ROOT)
    if shutil.which("cmake") is None:
        sys.exit("perfbench: cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.exit("perfbench: configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--parallel", jobs]
    if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["path-ah", "hot-hl", "fleet-ch"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, target)
    binary = build(os.path.join(build_root, "perfbench"))
    out_dir = os.path.join(build_root, "traces")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", out_dir]
    # A terminated runner must not leave the benchmark process behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("perfbench: terminated"))
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
