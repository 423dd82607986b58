#!/usr/bin/env python3
"""Steadiness check: runs the benchmark over several seeds and reports, for
each end-to-end metric, the median and the spread between the first and
third quartile as a share of the median (statistics.quantiles, n=4).

    python3 perfbench/steady.py [--seeds 1,2,3,...]

Every workload of BENCHMARK.json runs for its run_seconds, the length the
bounds and tail caps were set for; the seeds default to ten starting at the
default seed.  A spread at or above its metric's
bound fails the check (exit 1); setup_s is reported but only its median is
compared across runs, so it is not held to the spread rule.  Aim for
spreads under a third of the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed (exit %d)" % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit("%s seed %d: incorrect result" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default=",".join(str(DEFAULT_SEED + k) for k in range(10)))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]

    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(workload, seed, bench["run_seconds"]) for seed in seeds]
        print("%s over seeds %s" % (workload, args.seeds))
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            verdict = "ok" if spread < bound / 3 else ("wide" if spread < bound else "FAIL")
            if name != "setup_s" and spread >= bound:
                ok = False
            print("  %-18s median %-12.6g spread %6.3f (bound %.2f) %s  values %s"
                  % (name, med, spread, bound, verdict,
                     " ".join("%.6g" % v for v in values)))
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
