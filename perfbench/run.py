#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload commit-saturate --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --check-model

Run from the repository root.  Builds perfbench/perfbench.exe with dune
into .bench_build (release profile, dune cache off, so nothing is written
outside the checkout), then runs it with the same arguments.  The
program's standard output is passed through; its last line is the JSON
result.  Build output goes to standard error.  Exits non-zero, without
printing a result, when the build fails.
"""

import glob
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/perfbench.exe"
RUN_TIMEOUT_S = 175


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    home = os.path.expanduser("~")
    for candidate in sorted(glob.glob(os.path.join(home, ".opam", "*", "bin", "dune"))):
        if os.access(candidate, os.X_OK):
            return candidate
    return None


def build(dune):
    cmd = [
        dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
        "--profile", "release", "--cache", "disabled", "--display", "quiet", TARGET,
    ]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    if not os.path.isfile("dune-project"):
        print("run.py: run from the repository root (no dune-project here)", file=sys.stderr)
        return 2
    dune = find_dune()
    if dune is None:
        print("run.py: dune not found", file=sys.stderr)
        return 2
    if not build(dune):
        print("run.py: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
    try:
        proc = subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
