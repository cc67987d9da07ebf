#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <warm_stream|first_contact|population> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest [--seed <n>]

The benchmark is built (optimized) into .bench_build/perfbench under the
repository root; later runs rebuild only what changed. The last line of
standard output is the result object; build output goes to standard error.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "pti_perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "interop.hpp")):
        sys.exit("perfbench: the library sources (src/) are not in this checkout")
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for step in (configure, ["cmake", "--build", BUILD, "-j", jobs]):
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed")


def main():
    build()
    sys.stdout.flush()
    done = subprocess.run([BINARY] + sys.argv[1:])
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
