#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload compile|exec|serve|arch \
        --seed N --seconds S --trace 0|1

Run it from the root of the repository. It builds the `perfbench` package
(perfbench/Cargo.toml) and the `wabench-served` daemon in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), then runs the workload. Traces,
daemon state and a results log (`results.jsonl`, one record per run, stamped
with the host) go to `.bench_out/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is non-zero
when the build fails or any output check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("compile", "exec", "serve", "arch")


def build(target_dir):
    """Builds both binaries; exits non-zero (printing no result) on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    common = ["cargo", "build", "--release", "--offline", "--quiet"]
    steps = [
        common + ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
        common + ["--manifest-path", os.path.join(ROOT, "Cargo.toml"),
                  "-p", "wabench-svc", "--bin", "wabench-served"],
    ]
    for cmd in steps:
        # Cargo's own output goes to stderr, keeping stdout for the result.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # For the benchmark's own tests only.
    p.add_argument("--programs", type=int, default=0, help=argparse.SUPPRESS)
    p.add_argument("--tamper", choices=("checksum", "counter"), help=argparse.SUPPRESS)
    a = p.parse_args()
    if a.seconds < 1 or a.seed < 0:
        p.error("--seconds must be at least 1 and --seed not negative")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(target)
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", str(a.trace),
        "--served", os.path.join(release, "wabench-served"),
        # Relative, so the daemon's socket path stays short.
        "--out-dir", ".bench_out",
        "--programs", str(a.programs),
    ]
    if a.tamper:
        cmd += ["--tamper", a.tamper]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
