#!/usr/bin/env python3
"""Build perfbench from this checkout's sources and run one benchmark run.

    python3 perfbench/run.py --workload sweep|query --seed N --seconds S --trace 0|1

Run it from the repository root. Everything the build and the run write
stays under .bench_build/ in the checkout: the Go build cache, the binary,
and each run's scratch directory and span dump. The build's own output goes
to standard error, so the last line of standard output is the run's result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    os.makedirs(BUILD, exist_ok=True)
    # XDG_CONFIG_HOME keeps the go command's own state (its telemetry
    # counters) in the checkout too.
    env = dict(os.environ,
               GOCACHE=os.path.join(BUILD, "gocache"),
               GOPATH=os.path.join(BUILD, "gopath"),
               XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
               GOTOOLCHAIN="local",
               GOWORK="off")
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."],
                           cwd=os.path.join(ROOT, "perfbench"), env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [binary, "--out", os.path.join(BUILD, "runs")] + sys.argv[1:]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
