#!/usr/bin/env python3
"""Builds the repository benchmark from the checkout's sources and runs it.

    python3 perfbench/run.py --workload query-cold|sweep-warm|grid-submit \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The build lives in .bench_build/perfbench
(configured once, rebuilt incrementally); build output goes to stderr so the
last line of stdout is the benchmark's JSON result.  Spans of a traced run
are written next to the build.  The result must report exactly the metrics,
with their units, that BENCHMARK.json lists (end_to_end for --trace 0,
per_layer for --trace 1).  Exits non-zero, without a result, when the
library sources are missing, the build fails or the metrics disagree.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "exp", "engine.h")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench",
         "perfbench_selftest"],
        stdout=sys.stderr, check=True)


def flag(args, name):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def check_metrics(result_line, trace):
    """Fails unless the result reports exactly BENCHMARK.json's metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {m["name"]: m["unit"]
                for m in bench["per_layer" if trace == "1" else "end_to_end"]}
    reported = {name: m["unit"]
                for name, m in json.loads(result_line)["metrics"].items()}
    if reported != declared:
        fail("metrics differ from BENCHMARK.json: missing %s, undeclared %s"
             % (sorted(set(declared.items()) - set(reported.items())),
                sorted(set(reported.items()) - set(declared.items()))))


def main():
    args = sys.argv[1:]
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)
    scratch = os.path.join(BUILD, "scratch-%d" % os.getpid())
    extra = ["--scratch", scratch]
    if flag(args, "--trace") == "1":
        name = "trace-%s-seed%s.jsonl" % (flag(args, "--workload"), flag(args, "--seed"))
        extra += ["--trace-out", os.path.join(BUILD, name)]
    try:
        proc = subprocess.run([os.path.join(BUILD, "perfbench")] + args + extra,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.splitlines()
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    sys.stdout.flush()
    if lines and lines[-1].startswith("{"):
        check_metrics(lines[-1], flag(args, "--trace"))
    if lines:
        print(lines[-1])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
