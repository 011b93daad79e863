#!/usr/bin/env python3
"""Builds the perfbench driver from this checkout's sources and runs it.

Run from the repository root:

  python3 perfbench/run.py --workload replay_qdr10 --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --smoke

All arguments go to the driver (perfbench/perfbench.cc documents them); the
build directory is .bench_build/perfbench and the driver writes its host
spans and temporary exports under .bench_build/perfbench-out. Build output
goes to standard error, so the last line of standard output is the driver's
JSON result. Exits non-zero without a result when the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def build():
    """Configures and builds incrementally; True on success."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD_DIR, "-j", jobs]]
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    sys.stdout.flush()
    return subprocess.run([BINARY, *sys.argv[1:], "--out-dir", OUT_DIR],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
