#!/usr/bin/env python3
"""Closed-loop TaMix benchmark entry point (see README.md).

Builds tamix_bench from this checkout's sources into .bench_build/ (Release),
runs one workload and relays its output; the program's last stdout line is
the JSON result. Build output goes to stderr.

    python3 perfbench/run.py --workload c1-wire --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("c1-local", "c1-wire", "update-wal")
# Set-up, warm-up, stop and the update-wal restart come on top of the
# measured seconds; a run that overstays this is killed and fails.
RUN_SLACK_S = 150


def build(target):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = (
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", target],
    )
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        build("perfbench_selftest")
        sys.exit(subprocess.run(
            [os.path.join(BUILD, "perfbench_selftest")]).returncode)
    if args.workload is None:
        parser.error("--workload is required")

    build("tamix_bench")
    cmd = [os.path.join(BUILD, "tamix_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.tsv" % (args.workload, args.seed))]
    sys.stdout.flush()
    with subprocess.Popen(cmd) as proc:
        try:
            code = proc.wait(timeout=args.seconds + RUN_SLACK_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            sys.exit("benchmark timed out")
    sys.exit(code)


if __name__ == "__main__":
    main()
