#!/usr/bin/env python3
"""Steadiness self-check of the repository benchmark.

Runs every workload (or the ones named) in two sets of runs, each run with
its own seed, and reports per end-to-end metric:

* the spread of each set: the distance between the first and third quartile
  of the set's values (``statistics.quantiles(values, n=4)``) as a share of
  their median. It must stay within the metric's bound, and the benchmark
  aims for a third of it;
* whether the second set's median is no worse than the first's by more than
  the bound.

Every run measures for BENCHMARK.json's run_seconds. Run from the repository
root, after the benchmark has been built once:

    python3 perfbench/steady.py                      # all workloads, 2 x 10 seeds
    python3 perfbench/steady.py --workloads fig3-sweep16 --runs 5   # a quick look while tuning

Exit status 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

SETS = 2
FIRST_SEED = 1000


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    done = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result, wall


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def worse_by(first, second, better):
    """How much worse the second median is than the first, as a share."""
    if first == 0:
        return 0.0
    if better == "lower":
        return second / first - 1.0
    return 1.0 - second / first


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="", help="comma-separated; default all")
    parser.add_argument("--runs", type=int, default=10, help="runs (seeds) per set")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    metrics = bench["end_to_end"]

    ok = True
    for name in names:
        sets = []
        for s in range(SETS):
            values = {m["name"]: [] for m in metrics}
            for r in range(args.runs):
                seed = FIRST_SEED + s * args.runs + r
                result, wall = run_once(bench["command"], name, seed, seconds, 0)
                if not result["correct"] or result["failed"]:
                    ok = False
                    print(f"{name} seed {seed}: correct={result['correct']} "
                          f"failed={result['failed']}/{result['attempted']}")
                for m in metrics:
                    values[m["name"]].append(result["metrics"][m["name"]]["value"])
                shown = " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items())
                print(f"  {name} set {s + 1} seed {seed}: {shown} wall={wall:.1f}s",
                      file=sys.stderr, flush=True)
            sets.append(values)
        for m in metrics:
            key, bound = m["name"], m["bound"]
            medians = [statistics.median(v[key]) for v in sets]
            spreads = [spread(v[key]) for v in sets]
            checks = [("spread", sp <= bound, sp <= bound / 3) for sp in spreads]
            for later in medians[1:]:
                w = worse_by(medians[0], later, m["better"])
                checks.append(("median", w <= bound, w <= bound / 3))
            passed = all(c[1] for c in checks)
            ok &= passed
            verdict = "ok" if passed else "FAIL"
            if passed and not all(c[2] for c in checks):
                verdict = "ok (above a third of the bound)"
            print(f"{name} {key}: medians={['%.6g' % x for x in medians]} "
                  f"spreads={['%.4f' % x for x in spreads]} bound={bound} -> {verdict}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
