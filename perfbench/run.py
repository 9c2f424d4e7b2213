#!/usr/bin/env python3
"""Builds and runs the COSOFT end-to-end benchmark.

    python3 perfbench/run.py --workload coupled_emit --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The first run configures and builds
perfbench/ (which compiles the repository's libraries from ../src) into
.bench_build/perfbench; later runs only rebuild what changed. The last line
of standard output is the result object; build logs and diagnostics go to
standard error. The exit code is non-zero, and no result is printed, when the
build fails, a correctness check fails, or the result does not carry exactly
the metrics BENCHMARK.json names for the requested mode.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "run")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", BUILD, "--target", "cosoft_perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, "cosoft_perfbench")


def validate(line, spec, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail(f"last output line is not JSON: {line!r}")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"unexpected result keys {sorted(result)}")
    if result["correct"] is not True or not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("result is not a correct run with attempted operations")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    have = {name: m.get("unit") for name, m in result["metrics"].items()}
    if have != want:
        missing = sorted(set(want) - set(have))
        extra = sorted(set(have) - set(want))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, or units differ")
    for name, m in result["metrics"].items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {name} is not a finite number")
        if not trace and value <= 0:
            fail(f"end-to-end metric {name} is {value}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    binary = build()
    os.makedirs(WORK, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", WORK]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    validate(lines[-1], spec, args.trace == 1)
    print(lines[-1])


if __name__ == "__main__":
    main()
