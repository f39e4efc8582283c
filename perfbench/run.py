#!/usr/bin/env python3
"""Builds the APT benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the release `apt` binary and the
benchmark (`perfbench/`, a Cargo package of its own) into
$CARGO_TARGET_DIR (default `.bench_build`), then runs the workload in a
fresh process. Build output goes to standard error; the last line of
standard output is the workload's JSON result. `--workload all` runs every
workload, each in its own process.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A hung run is killed well inside the three minutes a run may take.
RUN_TIMEOUT_S = 170


def build(target):
    """Builds the daemon binary and the benchmark; False on failure."""
    steps = [
        ["cargo", "build", "--release", "--offline", "--locked",
         "-p", "apt-cli", "--bin", "apt"],
        ["cargo", "build", "--release", "--offline", "--locked",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates"))):
        print("run.py: the APT sources (Cargo.toml, crates/) are not here",
              file=sys.stderr)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    if not build(target):
        print("run.py: build failed", file=sys.stderr)
        return 1

    release = os.path.join(target, "release")
    # A relative output directory keeps the daemon's socket path short.
    out = os.path.join(target, "perfbench")
    if os.path.commonpath([ROOT, out]) == ROOT:
        out = os.path.relpath(out, ROOT)
    cmd = [os.path.join(release, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--apt", os.path.join(release, "apt"), "--out", out]
    # Its own process group, so that a hung run is stopped together with
    # the daemon it started.
    run = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return run.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.wait()
        print("run.py: the run did not finish in time", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
