#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload search|root-lp|service|service-cold \
        --seed N --seconds S --trace 0|1 [--smoke]

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode
into $CARGO_TARGET_DIR (default: .bench_build at the repository root),
offline. Build output goes to stderr; the last line on stdout is the
benchmark's JSON result. A traced run writes its spans under perfbench/out.
The exit code is the benchmark's: 0 when every answer passed the output
check, 1 when one failed, 2 (or cargo's code) when nothing could be run.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: the benchmark did not build", file=sys.stderr)
        return build.returncode or 2
    exe = os.path.join(target, "release", "tempart-perfbench")
    bench = subprocess.run([exe, *sys.argv[1:], "--out", os.path.join(HERE, "out")])
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
