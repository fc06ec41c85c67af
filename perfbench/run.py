#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload build-twolf --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --selfcheck

Everything the build and the run write stays inside the checkout, under
the build directory: $CARGO_TARGET_DIR when set, else .bench_build. The
Go build cache, the binary, per-run scratch files and span dumps all live
there. Build output goes to standard error, so the last line of standard
output is the benchmark's JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.abspath(os.path.join(ROOT, build))
    scratch = os.path.join(build, "work")
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=mod",
        TMPDIR=scratch,
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    args = [binary, "-root", ROOT, "-work", scratch, "-out", build] + sys.argv[1:]
    return subprocess.run(args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
