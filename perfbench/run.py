#!/usr/bin/env python3
"""Runs one workload of the repository benchmark (see README.md here).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the program's libraries and the
benchmark program from source into .bench_build/ (Release), runs the workload
and prints, as the last line of stdout, one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 the per-layer ones, summarized from the
run's span file (kept under .bench_build/work/). A failed operation, gate or
build exits nonzero without that line.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import summarize_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "work"
BINARY = BUILD / "foresight_perfbench"
WORKLOADS = ("carousel_hot", "drilldown_cold", "append_stream")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no program sources under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    done = subprocess.run(["cmake", "--build", str(BUILD), "--target",
                           "foresight_perfbench", "-j", jobs],
                          stdout=sys.stderr)
    if done.returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(WORK)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{args.workload} failed (exit {done.returncode})")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    if args.trace:
        metrics = summarize_trace.summarize(result["span_file"])
        coverage = metrics["trace.coverage"]["value"]
        if coverage < summarize_trace.MIN_COVERAGE:
            fail(f"layer self times cover only {coverage:.3f} of traced "
                 "request time")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}), flush=True)


if __name__ == "__main__":
    main()
