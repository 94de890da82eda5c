#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload fig1-inproc --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload collider-4k --seed 1 --seconds 40 --trace 1
    python3 perfbench/run.py --workload fig1-serve --smoke --seconds 1

Run it from the repository root. The driver is built (CMake, Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset,
and its scratch files go under .bench_tmp/ and are removed afterwards.
Build output goes to stderr; the last stdout line is the result JSON:
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
when every output check passed.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig1-inproc", "fig1-serve", "collider-4k")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then builds incrementally; returns the driver path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no dualcast sources at {os.path.join(ROOT, 'src')}")
    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
        "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    if subprocess.run(["cmake", "--build", build_dir, "-j", "4",
                       "--target", "perfbench_driver"],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench_driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args()

    driver = build()
    scratch = os.path.abspath(".bench_tmp")
    workdir = os.path.join(scratch, f"run-{os.getpid()}")
    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--pins", os.path.join(HERE, "pins.txt"), "--workdir", workdir]
    if args.smoke:
        command.append("--smoke")
    os.makedirs(workdir, exist_ok=True)
    try:
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)  # only when no other run is using it
        except OSError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"driver exited with {proc.returncode}")
    print(lines[-1], flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
