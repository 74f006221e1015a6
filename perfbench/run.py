#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload stream --seed 1 --seconds 12 --trace 0

The Go module in this directory is built against the repository's
module one directory up. The binary, the Go build cache and everything
a run writes stay under .bench_build in the checkout. The last line of
output is the result object (see main.go); the exit status is the
benchmark's own, or 1 when the build fails.
"""
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(BUILD_DIR)
    binary = os.path.join(build, "perfbench")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOTELEMETRY="off",
        GOTMPDIR=os.path.join(build, "tmp"),
        TMPDIR=os.path.join(build, "tmp"),
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    try:
        done = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=here, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=850,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print("perfbench: build failed:\n" + done.stdout, file=sys.stderr)
        return 1
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
