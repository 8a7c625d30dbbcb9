#!/usr/bin/env python3
"""Builds the benchmark and the `skipflow` server from source, then runs one
workload and passes its output through.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. Build output goes to `$CARGO_TARGET_DIR`
(default `.bench_build`) and to standard error; standard output carries only
the benchmark's result, whose last line is one JSON object. The exit code is
the benchmark's: non-zero when a build fails or an output check fails.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
TARGET = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest, *extra]
    env = dict(os.environ, CARGO_TARGET_DIR=TARGET)
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit(f"error: `{' '.join(cmd)}` failed")


def main():
    # The system under test (the release `skipflow` binary, which
    # `serve-churn` spawns), then the benchmark itself.
    build("Cargo.toml", "--bin", "skipflow")
    build(os.path.join("perfbench", "Cargo.toml"))
    release = os.path.join(TARGET, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--server-bin", os.path.join(release, "skipflow"),
        "--out-dir", os.path.join("perfbench", "out"),
    ]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
