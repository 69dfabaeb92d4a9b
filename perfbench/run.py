#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload rt-prefix --seed 1 --seconds 50 --trace 0

Builds perfbench/ (which builds the library from src/) as an optimised
CMake project under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), then runs the driver there. The driver's
standard output is passed through; its last line is the JSON result.
Build output goes to standard error. Exits non-zero, printing no
result, when the sources or the build are missing or broken.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("rt-decode", "rt-prefix", "sim-fleet")


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("library sources not found under " + os.path.join(root, "src"))
    os.makedirs(build_dir, exist_ok=True)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(root, "perfbench"),
                     "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    compile_ = ["cmake", "--build", build_dir, "-j", jobs,
                "--target", "perfbench_driver"]
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds within 1..600")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "perfbench")
    build(root, build_dir)

    driver = [os.path.join(build_dir, "perfbench_driver"),
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # The driver writes its Chrome trace into its working directory.
    result = subprocess.run(driver, cwd=build_dir, stdout=subprocess.PIPE,
                            text=True)
    if result.returncode != 0:
        sys.stdout.write(result.stdout)
        fail("driver exited with code %d" % result.returncode,
             result.returncode)
    lines = result.stdout.rstrip("\n").split("\n")
    if not lines or not lines[-1].startswith("{"):
        fail("driver printed no result")
    sys.stdout.write(result.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
