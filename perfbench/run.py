#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload adhoc_rollup --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR, or .bench_build
when that is unset; later runs only let the build tool check it is current.
Build output goes to stderr.

With --trace 0 the measurement runs in PROCESSES successive processes of
--seconds / PROCESSES each (same seed, so the same inputs); every metric is
the median over them, attempted and failed are their sums. The machine's
speed varies from one process to the next, and the median of three keeps
one slow process from deciding a run. With --trace 1 one process runs for
--seconds.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics named in BENCHMARK.json (end_to_end with --trace 0, per_layer
with --trace 1). Exit
codes: 0 all answers right, 1 a wrong answer, 2 the build or the set-up
failed, 3 a metric BENCHMARK.json names is missing from the result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROCESSES = 3


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no statcube sources at src/ next to perfbench/")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    binary = build()
    trace = args.trace == "1"
    processes = 1 if trace else PROCESSES
    results = []
    for _ in range(processes):
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(max(1, args.seconds // processes)),
             "--trace", args.trace],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            sys.stdout.write(proc.stdout)
            return proc.returncode or 2
        result = json.loads(lines[-1])
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            fail("result line has keys %s" % sorted(result), 3)
        if not result["correct"]:
            print(lines[-1])
            return 1
        results.append(result)

    names = expected_metrics(trace) or list(results[0]["metrics"])
    missing = [n for n in names if n not in results[0]["metrics"]]
    if missing:
        fail("metrics missing from the result: %s" % missing, 3)
    metrics = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values),
                         "unit": results[0]["metrics"][name]["unit"]}
    print(json.dumps({"correct": True,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
