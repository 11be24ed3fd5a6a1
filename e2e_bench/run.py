#!/usr/bin/env python3
"""Build and run one PassFlow end-to-end benchmark workload.

Usage, from the root of a checkout:

    python3 e2e_bench/run.py --workload attack-static --seed 1 \
        --seconds 10 --trace 0

The first call configures and builds the library and the benchmark driver
from source into .bench_build/ (Release, the root build's own options);
later calls only re-run the incremental build. Build output goes to
stderr, so standard output carries only the benchmark's own lines, the
last of which is the result object. See e2e_bench/README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("attack-static", "attack-dynamic", "attack-rules", "screen")


def fail(message):
    print("e2e_bench: " + message, file=sys.stderr)
    return 2


def source_digest():
    """sha256 over src/ (paths and bytes): identifies the measured code when
    the checkout is not a git repository."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, subdirs, files in os.walk(src):
        subdirs.sort()
        for name in sorted(files):
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return result.stdout.strip() if result.returncode == 0 else "none"


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "passflow_e2e",
                  "-j", jobs])
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr)
        if result.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", type=int, choices=(0, 1), default=0,
                        help="test-sized inputs and budgets")
    parser.add_argument("--trace-out", default="",
                        help="Chrome trace path for --trace 1 runs")
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "src", "passflow.hpp")) and
            os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))):
        return fail("no PassFlow source tree at " + ROOT)
    if not build():
        return fail("build failed")

    env = dict(os.environ)
    # Hold the OpenMP team at the library default (one thread per core),
    # whatever the calling environment says; the header records it.
    env["OMP_NUM_THREADS"] = str(os.cpu_count() or 1)
    command = [os.path.join(BUILD, "passflow_e2e"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", str(args.trace),
               "--tiny", str(args.tiny),
               "--root", ROOT,
               "--git-sha", git_sha(),
               "--source-digest", source_digest()]
    if args.trace_out:
        command += ["--trace-out", os.path.abspath(args.trace_out)]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
