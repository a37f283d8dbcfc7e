#!/usr/bin/env python3
"""Steadiness self-check: do two sets of runs of the same build agree?

    python3 perfbench/steady.py [--workload W ...]

Run from the root of a checkout. Each of two sets runs every chosen workload
(all of BENCHMARK.json's by default) ten times through perfbench/run.py with
--trace 0 for BENCHMARK.json's run_seconds, each run on its own seed (set k,
run i uses seed 1 + 10 * k + i). For every end-to-end metric of
BENCHMARK.json it prints each set's median and quartiles (Python's
statistics.quantiles, n=4), the quartile spread as a share of the median,
and whether the sets agree: every spread within the metric's bound, and the
two medians apart, in either direction, by no more than the bound as a
share of the first. It also checks that the share of failed operations is
the same in every run. Exits 0 when everything agrees, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
RUNS = 10


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("steady.py: %s seed %d exited %d"
                         % (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for k in range(SETS):
        for w in workloads:
            for i in range(RUNS):
                seed = 1 + RUNS * k + i
                results[w][k].append(run_once(w, seed, spec["run_seconds"]))
                print("set %d %s seed %d done" % (k + 1, w, seed),
                      file=sys.stderr)

    ok = True
    for w in workloads:
        print("\n== %s (%d runs per set, %d s each)"
              % (w, RUNS, spec["run_seconds"]))
        shares = {(r["failed"], r["attempted"]) for s in results[w] for r in s}
        fractions = {f / a for f, a in shares}
        if len(fractions) != 1:
            ok = False
        print("failed/attempted: %s%s" % (
            sorted("%d/%d" % fa for fa in shares)[:4],
            "" if len(fractions) == 1 else "  DIFFERENT SHARES"))
        print("%-20s %-8s %s  %s" % ("metric", "bound", "  ".join(
            "set%d median [q1, q3] spread" % (k + 1) for k in range(SETS)),
            "verdict"))
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells, verdict = [], "ok"
            medians = []
            for k in range(SETS):
                vals = [r["metrics"][name]["value"] for r in results[w][k]]
                q1, q2, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / q2 if q2 else 0.0
                medians.append(q2)
                cells.append("%12.5g [%.5g, %.5g] %5.1f%%"
                             % (q2, q1, q3, 100 * spread))
                if spread > bound:
                    verdict = "SPREAD > bound"
                elif spread > bound / 3 and verdict == "ok":
                    verdict = "ok (spread > bound/3)"
            shift = (medians[1] - medians[0]) / medians[0] if medians[0] else 0
            if abs(shift) > bound:
                verdict = "MEDIANS %+.1f%% apart" % (100 * shift)
            ok = ok and not verdict.startswith(("SPREAD", "MEDIANS"))
            print("%-20s %-8.3g %s  %s" % (name, bound, "  ".join(cells), verdict))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
