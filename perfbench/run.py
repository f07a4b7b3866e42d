#!/usr/bin/env python3
"""Serving benchmark entry point.

Builds the benchmark (perfbench/CMakeLists.txt) against the library
sources of the checkout it sits in, runs the tiny-size self-test once
after every rebuild, then runs one workload:

    python3 perfbench/run.py --workload serve_open_short --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run it from anywhere inside a checkout; build outputs go to
$CARGO_TARGET_DIR (default .bench_build) under the checkout root, and a
traced run writes its spans to <build dir>/traces/. The last line of
standard output is the run's JSON result. The exit status is non-zero
when the build, the self-test or the correctness gate fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configure once, then bring the binary up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "router.h")):
        fail("no library sources under " + os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                     "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    if subprocess.run(["cmake", "--build", build_dir, "--parallel", "4"],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "hima_perfbench")


def selftest_once(binary):
    """Run the self-test whenever the binary is newer than its last pass."""
    stamp = binary + ".selftest-passed"
    if (os.path.isfile(stamp)
            and os.path.getmtime(stamp) >= os.path.getmtime(binary)):
        return
    result = subprocess.run([binary, "--selftest"], stdout=sys.stderr)
    if result.returncode != 0:
        print("perfbench: self-test failed", file=sys.stderr)
        sys.exit(1)
    with open(stamp, "w") as out:
        out.write("ok\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_root = os.path.join(ROOT, target)
    binary = build(os.path.join(build_root, "perfbench"))
    if args.selftest:
        sys.exit(subprocess.run([binary, "--selftest"]).returncode)
    selftest_once(binary)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_root, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
