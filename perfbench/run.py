#!/usr/bin/env python3
"""Build the pipeline benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload ingest600 --seed 1 --seconds 15 --trace 0

The Go build cache, the binary, the traced runs' spans and each run's
scratch state all live under .bench_build/ in the checkout. Every argument
is passed through to the benchmark binary; its exit code is returned.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    """An environment that keeps every file the go tool writes in BUILD and
    never lets it reach the network."""
    home = os.path.join(BUILD, "home")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        HOME=home,
        XDG_CONFIG_HOME=home,
        XDG_CACHE_HOME=home,
        GOENV="off",
        GOFLAGS="",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        GOWORK="off",
        GOTELEMETRY="off",
    )
    return env


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: %s holds no go.mod; run from a checkout of the repository" % ROOT,
              file=sys.stderr)
        return 2
    os.makedirs(BUILD, exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=go_env(),
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([binary] + sys.argv[1:] + ["--out", BUILD], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
