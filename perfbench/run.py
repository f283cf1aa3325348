#!/usr/bin/env python3
"""Build the layered host-performance benchmark and run it.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fig1_nas --seed 1 --seconds 36 --trace 0

The benchmark binary is configured and built (Release) under
.bench_build/perfbench on first use, then this process execs it, so the
workload runs as one process whose peak memory is its own. Build output
goes to stderr; the last line of stdout is the result JSON. All other
arguments are passed through (see perfbench/README.md).
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "raa_perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no src/ beside perfbench/ - run it from a "
                 "full checkout of the repository")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "raa_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"perfbench: build failed: {err}")
    sys.stdout.flush()
    os.execv(BINARY, [BINARY, "--root", ROOT] + sys.argv[1:])


if __name__ == "__main__":
    main()
