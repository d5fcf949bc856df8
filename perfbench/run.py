#!/usr/bin/env python3
"""Build the perfbench query benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload median-records --seed 1 --seconds 10 --trace 0

Every argument is passed to the benchmark binary; its last line of standard
output is the JSON result. The Go build cache, temporary files and the
binary all live under .bench_build/ at the repository root, so nothing is
read or written outside the checkout.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

BUILD_TIMEOUT_S = 850  # the first build compiles the standard library
RUN_TIMEOUT_S = 175


def environment():
    env = dict(os.environ)
    for d in ("gocache", "gopath", "config", "tmp"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        TMPDIR=os.path.join(BUILD, "tmp"),
        GOTOOLCHAIN="local",
        GOENV="off",
        GOFLAGS="",
        GOPROXY="off",
    )
    return env


def main():
    env = environment()
    try:
        build = subprocess.run(
            ["go", "build", "-o", BINARY, "."],
            cwd=HERE, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        run = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
