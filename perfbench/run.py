#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload point-cold --seed 1 --seconds 10 --trace 0

The Go program in this directory is compiled from the checkout's own
sources (its go.mod points the engine module at the parent directory),
with every build and cache file kept under .bench_build/ in the
repository root. Its output is passed through unchanged: a report, then
one JSON result as the last line. The exit code is the program's, or 1
when the build fails or the run overruns its time limit.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def go_env():
    """Environment for the go command: offline, and writing only under BUILD."""
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "HOME": BUILD,
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOWORK": "off",
        "GOFLAGS": "-buildvcs=false",
        "CGO_ENABLED": "0",
    })
    return env


def build():
    go = shutil.which("go")
    if go is None and os.environ.get("GOROOT"):
        candidate = os.path.join(os.environ["GOROOT"], "bin", "go")
        go = candidate if os.path.exists(candidate) else None
    if go is None:
        print("perfbench: the go toolchain is not on PATH", file=sys.stderr)
        return False
    os.makedirs(BUILD, exist_ok=True)
    try:
        done = subprocess.run([go, "build", "-o", BINARY, "."], cwd=HERE, env=go_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return False
    if done.returncode != 0:
        print("perfbench: build failed:\n" + done.stdout, file=sys.stderr)
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", os.path.join(BUILD, "traces")]
    proc = subprocess.Popen(cmd, cwd=ROOT)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run overran %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
