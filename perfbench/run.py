#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

One workload, as the benchmark contract runs it:

    python3 perfbench/run.py --workload warm_distinct --seed 1 \
        --seconds 25 --trace 0

prints human-readable lines and, last, one JSON object with `correct`,
`attempted`, `failed` and `metrics` (the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer ones with --trace 1).

Every workload in one go, end-to-end metrics and correctness checks
(the workloads of BENCHMARK.json plus cluster_cold, which is left out of
that set only to fit the contract's time budget):

    python3 perfbench/run.py --all [--seed 1] [--seconds 25]

Run from the root of a checkout. surf_cli and perfbench are built
from that checkout's sources into $CARGO_TARGET_DIR (default
.bench_build); without the sources the build fails and so does the run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["warm_distinct", "cold_train", "mixed_burst", "cluster_cold"]
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures once, then lets make decide what is stale."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "surf_cli", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_one(build_dir, workload, seed, seconds, trace):
    """Runs one workload; returns (stdout lines, result object)."""
    workdir = os.path.join(build_dir, "run-%d-%s" % (os.getpid(), workload))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--cli", os.path.join(build_dir, "surf", "surf_cli"),
           "--workdir", workdir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish in %d s (logs in %s)"
                 % (workload, RUN_TIMEOUT_S, workdir))
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.exit("perfbench: %s exited with %d (logs in %s)"
                 % (workload, done.returncode, workdir))
    shutil.rmtree(workdir, ignore_errors=True)
    result = json.loads(lines[-1])
    expected = declared_metrics(trace)
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    if emitted != expected:
        sys.exit("perfbench: emitted metrics %s differ from BENCHMARK.json %s"
                 % (sorted(emitted.items()), sorted(expected.items())))
    return lines[:-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print a summary")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload or --all")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    build(build_dir)

    if args.workload:
        lines, result = run_one(build_dir, args.workload, args.seed,
                                args.seconds, args.trace == 1)
        sys.stdout.write("\n".join(lines) + "\n")
        print(json.dumps(result))
        return

    all_correct = True
    for workload in WORKLOADS:
        lines, result = run_one(build_dir, workload, args.seed,
                                args.seconds, args.trace == 1)
        sys.stdout.write("\n".join(lines) + "\n")
        attempted, failed = result["attempted"], result["failed"]
        print("%s correct %s, error_rate %.4g (%d failed of %d attempted)"
              % (workload, result["correct"], failed / attempted, failed,
                 attempted))
        all_correct = all_correct and result["correct"]
    if not all_correct:
        sys.exit("perfbench: a workload returned wrong answers")


if __name__ == "__main__":
    main()
