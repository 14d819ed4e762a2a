#!/usr/bin/env python3
"""Build and run the MoVR benchmark.

    python3 movrbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
movr library plus the benchmark executable (RelWithDebInfo, like the
repository's default build) into $CARGO_TARGET_DIR, or .bench_build when
that is unset; later calls only check the build is up to date. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
Exits nonzero without a result when the library sources are missing or the
build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# A run must end within 180 s; keep a margin for the interpreter and build
# check.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"movrbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"the movr library sources are missing under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake is not on PATH")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", str(build_dir), "--parallel", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "movrbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = Path.cwd() / build_dir
    binary = build(build_dir)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
    try:
        run = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
