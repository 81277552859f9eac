#!/usr/bin/env python3
"""End-to-end SELECT benchmark: build the program from source, then run it.

    python3 perfbench/run.py --workload build|feed|chaos --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first call configures and compiles the
benchmark package (perfbench/CMakeLists.txt, which pulls in the repository's
own build) into .bench_build/perfbench; later calls only rebuild what
changed. The binary prints its metric table and, as the last line of
standard output, one JSON object with the keys correct, attempted, failed
and metrics. Build output goes to standard error.

The executor width SELECT_THREADS is pinned to min(4, nproc) and every other
SEL_*/SELECT_* variable is cleared, so a run depends only on its arguments.
Exit status: 0 when the run completed and every correctness check passed.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "select_e2e"
JOBS = max(1, min(4, os.cpu_count() or 1))
BUILD_TIMEOUT_S = 600
RUN_GRACE_S = 120


def build():
    """Configures (once) and compiles the benchmark; False on failure."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(SOURCE), "-B", str(BUILD)])
    steps.append(["cmake", "--build", str(BUILD), "--target", "select_e2e",
                  "-j", str(JOBS)])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: '{' '.join(cmd)}' failed", file=sys.stderr)
            return False
    return BINARY.exists()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 1
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("SEL_", "SELECT_"))}
    env["SELECT_THREADS"] = str(JOBS)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env,
                              timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
