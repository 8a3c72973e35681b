#!/usr/bin/env python3
"""Build perfbench from source and run one workload.

    python3 perfbench/run.py --workload gcc-pipeline --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

Run from the repository root. The first call configures and builds
perfbench/ (and the simulator libraries under src/) in a Release build
under $CARGO_TARGET_DIR, default .bench_build/; later calls rebuild
only what changed. Build output goes to stderr; the benchmark's own
output, whose last line is the JSON result, goes to stdout.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_id():
    """The commit when run from a git checkout, else a tree digest."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            dirty = subprocess.run(["git", "status", "--porcelain"],
                                   cwd=ROOT, capture_output=True, text=True,
                                   timeout=10)
            suffix = "-dirty" if dirty.stdout.strip() else ""
            return head.stdout.strip() + suffix
    except (OSError, subprocess.TimeoutExpired):
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
    return "tree-" + digest.hexdigest()[:16]


def build():
    """Configure once, then build incrementally; returns the binary."""
    target = os.environ.get("CARGO_TARGET_DIR",
                            os.path.join(ROOT, ".bench_build"))
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def main():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources next to perfbench/ (expected ../src)")
    binary = build()
    args = [binary] + sys.argv[1:] + ["--source-id", source_id()]
    sys.stdout.flush()
    try:
        done = subprocess.run(args, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
