#!/usr/bin/env python3
"""Build forksim's benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Every call configures and builds
perfbench/ (which compiles the engine libraries from src/) into
.bench_build/perfbench; once built, that is only an up-to-date check. Build
output goes to standard error; the benchmark's own output, whose last line
is the JSON result, goes to standard output. Spans and full result records
land in .bench_build/perfbench-out. Exits non-zero, without a result line,
when the build or the run fails.
"""
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD_DIR, "forksim_perfbench")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def step(cmd, timeout):
    """Run a build step with its output on stderr; False on failure."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {cmd[0]}: {e}", file=sys.stderr)
        return False


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: engine sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return False
    if not step(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S):
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    return step(["cmake", "--build", BUILD_DIR, "--target",
                 "forksim_perfbench", "-j", jobs], BUILD_TIMEOUT_S)


def main(argv):
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        proc = subprocess.run([BINARY, *argv, "--out-dir", OUT_DIR],
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
