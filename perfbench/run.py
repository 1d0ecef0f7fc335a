#!/usr/bin/env python3
"""Builds and runs the seeded RSTkNN benchmark (perfbench/rstknn_perfbench.cc).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The harness and the rst library it
links are built from source with CMake into .bench_build/perfbench (Release);
build output goes to stderr. The harness prints its report and, as the last
stdout line, one JSON object {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

--workload all runs every workload in turn and ends with one combined line
whose metric names are prefixed by the workload name.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["flickr_probe", "yelp_longdoc", "geonames_churn"]
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "rstknn_perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no library sources at src/ -- run from the root of a checkout")
    build_dir = os.path.join(root, BUILD_DIR)
    steps = [
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
         "--target", "rstknn_perfbench"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def run_one(root, workload, seed, seconds, trace):
    """Runs one workload; echoes its report and returns its result object."""
    cmd = [os.path.join(root, BINARY), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload} printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} printed a malformed result line")
    print("\n".join(lines[:-1]))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    build(root)
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {name: run_one(root, name, args.seed, args.seconds, args.trace)
               for name in names}
    if len(names) == 1:
        combined = results[names[0]]
    else:
        combined = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(combined), flush=True)


if __name__ == "__main__":
    main()
