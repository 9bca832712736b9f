#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 dlapbench/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds
dlapbench and dlapd (Release) into the build directory: $CARGO_TARGET_DIR
when set, else .bench_build. Every run then executes dlapbench, which
prints its report and, as the last stdout line, the JSON result. The
exit code is nonzero on a build failure, a failed check or a timeout.
"""

import argparse
import ctypes
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve_hot", "generate")
RUN_TIMEOUT_S = 170
PR_SET_PDEATHSIG = 1


def die_with_parent():
    """Runs in the child before exec: if run.py dies, so does dlapbench."""
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def build(build_dir):
    """Configures once, then lets the build tool decide what is stale."""
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=log, stderr=log, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "dlapbench", "-j",
         str(min(4, os.cpu_count() or 1))],
        stdout=log, stderr=log, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"dlapbench: build failed: {err}", file=sys.stderr)
        return 1

    command = [
        os.path.join(build_dir, "dlapbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", os.path.join(build_dir, f"work-{args.workload}"),
    ]
    try:
        # dlapbench dies with run.py and dlapd children die with dlapbench
        # (PR_SET_PDEATHSIG), so killing it on timeout stops every process
        # this run started.
        return subprocess.run(command, timeout=RUN_TIMEOUT_S,
                              preexec_fn=die_with_parent).returncode
    except subprocess.TimeoutExpired:
        print(f"dlapbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
