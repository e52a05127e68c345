#!/usr/bin/env python3
"""Build the fleet benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 fleetbench/run.py --workload fanout_ovl --seed 1 --seconds 20 --trace 0

The benchmark is a Cargo package of its own (``fleetbench/Cargo.toml``)
that depends on the program's crates by path. It is built in release
mode into ``$CARGO_TARGET_DIR`` (default ``.bench_build``), then run.
The last line of standard output is the result JSON; build output goes
to standard error. A failed build exits non-zero without a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fanout_ovl", "relay_pcm", "lossy_heal", "studio_8ch")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("fleetbench: build failed", file=sys.stderr)
        return 1
    run = subprocess.run(
        [
            os.path.join(target, "release", "es-fleetbench"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ],
        env=env,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
