#!/usr/bin/env python3
"""Self-test of the benchmark.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py [--all]

Runs short seeded runs and checks that
  * the result line lists exactly the BENCHMARK.json metrics (end-to-end
    untraced, per-layer traced), each with its declared unit;
  * a correct run passes the gate and exits 0;
  * a deliberately flipped verdict and a tampered counterexample make the
    gate fail: failed > 0, correct false, nonzero exit.
By default only the fast `cegar` workload runs; --all checks the metric
names of every workload too.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace, tamper=None, seconds=1):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", str(seconds),
           "--trace", str(trace)]
    if tamper:
        cmd += ["--tamper", tamper]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return out.returncode, result, out.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--all", action="store_true",
                    help="check the metric names of every workload")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def check(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            problems.append(what)

    workloads = [w["name"] for w in spec["workloads"]] if args.all else ["cegar"]
    for workload in workloads:
        for trace in (0, 1):
            rc, result, stdout = run(workload, trace)
            tag = "%s trace=%d" % (workload, trace)
            check(rc == 0 and result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] > 0,
                  tag + ": correct run passes the gate")
            if result is None:
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  tag + ": result line has exactly the four keys")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected[trace],
                  tag + ": every named metric, with its unit")
            check("failed_share" in stdout, tag + ": failed_share printed")

    for tamper in ("flip", "cex"):
        rc, result, _ = run("cegar", 0, tamper)
        check(rc != 0 and result is not None and result["failed"] > 0
              and not result["correct"],
              "cegar --tamper %s: the gate fails" % tamper)

    print("selftest:", "FAILED (%d)" % len(problems) if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
