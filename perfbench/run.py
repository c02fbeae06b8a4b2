#!/usr/bin/env python3
"""Build the benchmark and the sweep binaries from source, then run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds, in release mode and offline, the `perfbench` package (its own
workspace, path-depending on the library crates) and the repository's
`sweep_drive` / `scenario_sweep` binaries into `$CARGO_TARGET_DIR`
(default `.bench_build`), then replaces itself with the benchmark
binary. Build output goes to stderr; stdout carries only the
benchmark's log and its final JSON result line. A failed build exits
non-zero without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> None:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        ["-p", "arsf-bench", "--bin", "sweep_drive", "--bin", "scenario_sweep"],
    ]
    for extra in builds:
        command = ["cargo", "build", "--release", "--offline", "--quiet", *extra]
        status = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr).returncode
        if status != 0:
            sys.exit(status if status > 0 else 1)
    bin_dir = os.path.join(target, "release")
    exe = os.path.join(bin_dir, "perfbench")
    status = subprocess.run([exe, *sys.argv[1:], "--bin-dir", bin_dir], cwd=ROOT).returncode
    sys.exit(status if status >= 0 else 1)


if __name__ == "__main__":
    main()
