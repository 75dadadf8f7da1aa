#!/usr/bin/env python3
"""Builds the QueryER benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <sp_cold|spj_explore|wire_mix> \
        --seed <n> --seconds <s> --trace <0|1> [--tiny]

Run it from the repository root. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), configured as
RelWithDebInfo, the repository's default build type. Build output goes to
standard error; standard output carries only the benchmark's own lines, the
last of which is the result object. The exit code is the benchmark's: 0 when
every output check passed, non-zero otherwise (or when the build fails).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Every run must end well inside its three-minute limit.
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(out_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    configure = ["cmake", "-S", HERE, "-B", out_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        result = subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    result = subprocess.run(
        ["cmake", "--build", out_dir, "--target", "queryer_perfbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        return None
    return os.path.join(out_dir, "queryer_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sp_cold", "spj_explore", "wire_mix"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--tiny", action="store_true",
                        help="tiny tables and passes (the self-test)")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        print("perfbench: no QueryER sources next to perfbench/", file=sys.stderr)
        return 1
    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    work_dir = os.path.join(out_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", work_dir]
    if args.tiny:
        command.append("--tiny")
    try:
        result = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
