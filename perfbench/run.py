#!/usr/bin/env python3
"""Builds the SMART simulator benchmark from source and runs it.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode
into $CARGO_TARGET_DIR (perfbench/target when unset), then run with the
given arguments. Its standard output is passed through; the last line is
the JSON result. A traced run also writes its benchmark-level spans to
perfbench-spans-<workload>.json in the target directory. The exit code is
the build's when the build fails, else the benchmark's. `--workload all`
runs every workload in turn, each in its own process, and exits nonzero
if any of them did.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# The benchmark itself must end within 180 s; stop it a little before.
RUN_TIMEOUT_S = 170
WORKLOADS = ["ht_write", "verbs_read", "serve_decomposed"]


def run_one(exe, argv, target, workload):
    """Runs the benchmark binary once and returns its exit code."""
    spans = os.path.join(target, f"perfbench-spans-{workload}.json")
    try:
        run = subprocess.run([exe, *argv, "--spans", spans], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet", "-j", "2",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    argv = sys.argv[1:]
    # The binary itself rejects a missing or unknown workload.
    i = argv.index("--workload") + 1 if "--workload" in argv[:-1] else None
    workload = argv[i] if i is not None else "unknown"
    if workload != "all":
        return run_one(exe, argv, target, workload)
    codes = [run_one(exe, argv[:i] + [w] + argv[i + 1:], target, w) for w in WORKLOADS]
    return next((c for c in codes if c != 0), 0)


if __name__ == "__main__":
    sys.exit(main())
