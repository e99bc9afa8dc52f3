#!/usr/bin/env python3
"""Build the benchmark (and, for the bpsd workload, the daemon) from
source, then run one workload and pass its output and exit code through.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper|observed|livemem|bpsd \
        --seed N --seconds S --trace 0|1

The last line of standard output is the benchmark's JSON result. Build
products, the Go build cache and span dumps stay under .bench_build/ in
the checkout; nothing is fetched from the network.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    bindir = os.path.join(build, "bin")
    env = dict(os.environ)
    env.update(
        # The go command's own config and telemetry files go under the
        # checkout too, and no user go env file changes the build.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    os.makedirs(bindir, exist_ok=True)

    bench = os.path.join(bindir, "perfbench")
    bpsd = os.path.join(bindir, "bpsd")
    builds = [(here, ["go", "build", "-o", bench, "."])]
    if "bpsd" in sys.argv[1:]:
        builds.append((root, ["go", "build", "-o", bpsd, "./cmd/bpsd"]))
    for cwd, cmd in builds:
        # Build output goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2

    args = [bench] + sys.argv[1:] + ["--bpsd", bpsd, "--out", os.path.join(build, "out")]
    return subprocess.run(args, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
