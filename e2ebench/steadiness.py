#!/usr/bin/env python3
"""Steadiness check of the end-to-end benchmark on one commit.

Runs the benchmark (trace off) in two sets; each set runs every chosen
workload once per seed, seeds 1 to --seeds. For each end-to-end metric
on each workload it prints the median of each set, the spread of each
set (inter-quartile distance as a share of the median, from
statistics.quantiles(n=4)) and that spread as a share of the metric's
bound in BENCHMARK.json, and the difference between the set medians.
Run from the repository root:

    python3 e2ebench/steadiness.py --seeds 10 --sets 2
    python3 e2ebench/steadiness.py --workload fleet-durable --seeds 5 --sets 1

Exit code 0 when every spread (setup_s's excepted) and the difference
between the set medians are within the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    """Share by which median ``second`` is worse than ``first``."""
    if better == "lower":
        return (second - first) / first
    return (first - second) / first


def run_once(bench, workload, seed):
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        sys.exit("run failed: %s seed %d (exit %d)"
                 % (workload, seed, proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit("incorrect result: %s seed %d" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append",
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--sets", type=int, choices=(1, 2), default=2)
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = range(1, args.seeds + 1)
    ok = True
    for workload in workloads:
        sets = []
        for _ in range(args.sets):
            sets.append([run_once(bench, workload, s) for s in seeds])
        print("== %s (%d seeds x %d sets, %d s runs)"
              % (workload, args.seeds, args.sets, bench["run_seconds"]))
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians, spreads = [], []
            for runs in sets:
                values = [r[name] for r in runs]
                medians.append(statistics.median(values))
                spreads.append(spread(values))
            line = "  %-20s bound %5.3f" % (name, bound)
            for m, s in zip(medians, spreads):
                line += "  median %12.5g spread %6.3f (%4.2f of bound)" % (
                    m, s, s / bound)
            bad = name != "setup_s" and any(s > bound for s in spreads)
            if len(sets) == 2:
                diff = worse_by(medians[0], medians[1], metric["better"])
                line += "  set2 worse by %+6.3f" % diff
                bad = bad or diff > bound
            ok = ok and not bad
            print(line + ("  FAIL" if bad else ""))
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
