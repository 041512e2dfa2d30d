#!/usr/bin/env python3
"""Builds the agequant benchmark and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the shipped `agequant-serve` binary from the repository
workspace and the benchmark package in this directory (both offline,
against the committed lock files, into `CARGO_TARGET_DIR` or
`target/`), then runs the benchmark binary with the same arguments.
Its last stdout line is the result; its exit code is this script's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cargo_build(manifest, extra):
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
           "--manifest-path", manifest] + extra
    # Cargo reports on stderr; keep stdout for the result line.
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode == 0


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, "target"))
    os.environ["CARGO_TARGET_DIR"] = target
    if not cargo_build(os.path.join(ROOT, "Cargo.toml"),
                       ["-p", "agequant-serve", "--bin", "agequant-serve"]):
        print("perfbench: building agequant-serve failed", file=sys.stderr)
        return 1
    if not cargo_build(os.path.join(HERE, "Cargo.toml"), []):
        print("perfbench: building the benchmark failed", file=sys.stderr)
        return 1
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "agequant-perfbench")] + sys.argv[1:] + [
        "--serve-bin", os.path.join(release, "agequant-serve"),
        "--out-dir", os.path.join(HERE, "out"),
    ]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
