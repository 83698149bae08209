#!/usr/bin/env python3
"""Charon end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload slate|deep|serve|cegar \
        --seed N --seconds S --trace 0|1

Builds the benchmark program from source (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR (default .bench_build), trains or loads every network in
an untimed prepare step, then runs one workload. The last line of standard
output is the JSON result; the exit code is 0 only when every verdict
passed the correctness gate. See perfbench/README.md for the metrics.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("slate", "deep", "serve", "cegar")
# Knobs the library or the older benches read from the environment. They
# are removed so every run measures the same configuration.
PINNED_ENV_PREFIXES = ("CHARON_BENCH_", "CHARON_KERNEL_", "CHARON_SIMD")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tamper", choices=("flip", "cex"),
                    help="self-test only: corrupt one verdict")
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("perfbench: no Charon sources next to perfbench/; nothing to build")
        return 2
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build):
        build = os.path.join(root, build)
    data = os.path.join(build, "perfbench")
    os.makedirs(data, exist_ok=True)

    env = dict(os.environ)
    ignored = sorted(k for k in env if k.startswith(PINNED_ENV_PREFIXES))
    for k in ignored:
        del env[k]
    print("ignored environment:", " ".join(ignored) if ignored else "none",
          flush=True)

    # Build output goes to stderr so stdout ends with the result line.
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, env=env)
        if rc:
            log("perfbench: configure failed")
            return 3
    jobs = str(os.cpu_count() or 1)
    rc = subprocess.call(
        ["cmake", "--build", build, "-j", jobs, "--target", "perfbench_charon",
         "perfbench_worker"], stdout=sys.stderr, env=env)
    if rc:
        log("perfbench: build failed")
        return 3

    binary = os.path.join(build, "perfbench_charon")
    # Untimed prepare step: trains every network into the benchmark's own
    # cache on first use, loads it afterwards.
    rc = subprocess.call([binary, "--prepare", "--data", data],
                         stdout=sys.stderr, env=env, cwd=root)
    if rc:
        log("perfbench: prepare failed")
        return 3

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--data", data, "--worker", os.path.join(build, "perfbench_worker"),
           "--root", root]
    if args.tamper:
        cmd += ["--tamper", args.tamper]
    return subprocess.call(cmd, env=env, cwd=root)


if __name__ == "__main__":
    sys.exit(main())
