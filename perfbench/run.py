#!/usr/bin/env python3
"""Build and run the hdsm benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root.  The first call configures and builds
perfbench/CMakeLists.txt (the hdsm libraries from src/ plus hdsm_bench) in
.bench_build/perfbench; later calls rebuild only what changed.  Build output
goes to stderr; hdsm_bench's stdout passes through, so the last stdout line
is its JSON result.  A traced run also writes a Chrome trace to
.bench_build/traces/.  See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# One benchmark run stays below the 180 s a caller allows.
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("hdsm sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "hdsm_bench",
         "perfbench_selftest", "-j", jobs],
        check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the benchmark's unit tests and exit")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds):
        fail("--workload, --seed and --seconds are required")

    try:
        build()
    except subprocess.CalledProcessError as e:
        fail("build failed: %s" % e, 1)

    if args.self_test:
        sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                                timeout=RUN_TIMEOUT_S).returncode)

    cmd = [os.path.join(BUILD, "hdsm_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("hdsm_bench exceeded %d s" % RUN_TIMEOUT_S, 3)
    sys.exit(code)


if __name__ == "__main__":
    main()
