#!/usr/bin/env python3
"""Builds the SPATE benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ingest|explore|serve \
        --seed N --seconds S --trace 0|1

The first call configures and compiles the library and the benchmark into
.bench_build/perfbench (Release, no lockdep, no failpoints); later calls
only rebuild what changed. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. Spans of a
traced run are written to .bench_build/traces/.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "spate_perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10)
        if commit.returncode == 0 and commit.stdout.strip():
            return commit.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                   "--target", "spate_perfbench"])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the results.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            return False
    return os.path.isfile(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ingest", "explore", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--perturb-reference", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail("no SPATE sources at %s/src" % ROOT)
    try:
        if not build():
            return fail("build failed")
    except subprocess.TimeoutExpired:
        return fail("build timed out")
    os.makedirs(TRACE_DIR, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out-dir", TRACE_DIR, "--commit", source_id()]
    if args.perturb_reference:
        command.append("--perturb-reference")
    sys.stdout.flush()
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("run timed out")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
