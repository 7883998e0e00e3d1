#!/usr/bin/env python3
"""Build the engine and the ward-serving benchmark from source, then run one workload.

    python3 wardbench/run.py --workload paper-ward --seed 1 --seconds 20 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR/wardbench
(default .bench_build/wardbench) and is incremental, so only the first run
compiles. Build output goes to stderr; the benchmark's report goes to stdout,
ending with one JSON line {correct, attempted, failed, metrics}. Any extra
arguments (--plant, --plant-us) are passed through.
Exits non-zero, printing no result, when the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "wardbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(build_dir, "wardbench")


def main():
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(build_root, "wardbench")
    exe = build(build_dir)
    if exe is None or not os.path.exists(exe):
        print("wardbench: build failed", file=sys.stderr)
        return 1
    out_dir = os.path.join(build_root, "wardbench-out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [exe] + sys.argv[1:] + ["--out-dir", out_dir]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("wardbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
