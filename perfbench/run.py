#!/usr/bin/env python3
"""Build tadfa, tadfa-serve and the benchmark from source, then run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload <replay-warm|analyze-fresh|cli-cold> \
        --seed <n> --seconds <s> --trace <0|1>

Cargo builds into $CARGO_TARGET_DIR (default: .bench_build). Build output
goes to stderr; the benchmark's result is the last line of stdout.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    for needed in ("Cargo.toml", "scenarios", os.path.join("perfbench", "Cargo.toml")):
        if not os.path.exists(os.path.join(root, needed)):
            print(f"perfbench: {needed} not found under {root}; run from the repository root",
                  file=sys.stderr)
            return 2
    env = dict(os.environ)
    target = os.path.join(root, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "Cargo.toml"),
         "-p", "tadfa", "--bin", "tadfa", "-p", "tadfa-serve", "--bin", "tadfa-serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        # Cargo's own output must not reach stdout, whose last line is the result.
        built = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    bench = [os.path.join(release, "perfbench"), "--root", root, "--bin-dir", release]
    return subprocess.run(bench + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
