#!/usr/bin/env sh
# bench_run.sh — run the replay-kernel perf bench and collect the
# machine-readable BENCH_exhaustive.json artifact (grid size, ns/cell per
# path, speedups), so the perf trajectory of the exhaustive hot loop is
# recorded run over run.
#
# Usage:  scripts/bench_run.sh [--smoke] [build-dir]   (default: build)
#   --smoke   regression gate (the CI perf-smoke job), applied to EVERY
#             grid recorded in the JSON (inorder-lru and ooo-fifo): fail
#             when
#             * the bench was built with PRED_OBS_DISABLED (the gate's
#               whole point is that ns/cell holds WITH the observability
#               layer recording; a metrics-off number proves nothing), or
#             * the bench reports non-bit-identical matrices, or
#             * a grid's packed ns/cell exceeds PERF_SMOKE_FACTOR (default
#               2.0) x that grid's entry in bench/perf_baseline.json, or
#             * a grid's packed-vs-interpreted speedup falls below
#               PERF_MIN_SPEEDUP (default 3.0), or
#             * the sharded-throughput grid (the grid scheduler at
#               K in {1,2,4,8} stealing workers) is missing, not
#               bit-identical to the single-process run, or any K's
#               cells/sec falls below sharded.min_cells_per_sec /
#               PERF_SMOKE_FACTOR, or
#             * any K's job resolved more than K x |I| inputs
#               (sharded.trace_store_misses): each worker thread keeps the
#               grid it evaluated last resident, so it resolves each input
#               at most once per job.  A count, so no factor applies, or
#             * the attached-worker grid (an attach-only GridServer on
#               loopback TCP serving K in {1,2,4} remote attach workers)
#               is missing, not bit-identical, or any K's cells/sec
#               falls below attached.min_cells_per_sec /
#               PERF_SMOKE_FACTOR, or
#             * the trace-class collapse grid (the duplicate-heavy
#               linearsearch-16x64-dup preset) is missing, not
#               bit-identical to the uncollapsed run, reports as many
#               trace classes as inputs (collapse enabled but inert),
#               beats the uncollapsed path by less than
#               collapse.min_speedup, or exceeds PERF_SMOKE_FACTOR x
#               collapse.collapsed_ns_per_cell, or
#             * the cold-resolve section (a fresh TraceStore resolving the
#               64 linearsearch-16x64 inputs in the Streams form, best of
#               5) is missing or its us/input exceeds PERF_SMOKE_FACTOR x
#               resolve.us_per_input, or
#             * the state-collapse section (bubblesort-8 x 64 arrays at 256
#               states on inorder-lru and ooo-fifo, warm store) is missing,
#               not bit-identical to the uncollapsed walk, replays more
#               cells than state_collapse.grids.*.cells_replayed (a count,
#               so no factor applies; without the state collapse every
#               (state, trace class) cell replays), or exceeds
#               PERF_SMOKE_FACTOR x that grid's ns_per_cell.
set -eu

cd "$(dirname "$0")/.."

SMOKE=0
BUILD_DIR=build
for arg in "$@"; do
  case "$arg" in
    --smoke) SMOKE=1 ;;
    *) BUILD_DIR="$arg" ;;
  esac
done

JSON_OUT="$BUILD_DIR/BENCH_exhaustive.json"
BENCH_JSON="$JSON_OUT" "./$BUILD_DIR/bench_exp_engine" --benchmark_filter=NONE
echo
echo "== $JSON_OUT"
cat "$JSON_OUT"

if [ "$SMOKE" = 1 ]; then
  python3 - "$JSON_OUT" bench/perf_baseline.json \
      "${PERF_SMOKE_FACTOR:-2.0}" "${PERF_MIN_SPEEDUP:-3.0}" <<'PY'
import json, sys

measured = json.load(open(sys.argv[1]))
baseline = json.load(open(sys.argv[2]))
factor = float(sys.argv[3])
min_speedup = float(sys.argv[4])
failed = False

if not measured.get("metrics_enabled", False):
    print("FAIL: bench was built with PRED_OBS_DISABLED; the perf gate "
          "must measure the instrumented hot path")
    failed = True
else:
    print("metrics enabled: yes (gate measures the instrumented hot path)")

if not measured.get("bit_identical", False):
    print("FAIL: packed/interpreted/naive matrices are not bit-identical")
    failed = True

for name, base in baseline["grids"].items():
    grid = measured["grids"].get(name)
    if grid is None:
        print(f"FAIL: grid '{name}' missing from the bench JSON")
        failed = True
        continue
    if not grid.get("bit_identical", False):
        print(f"FAIL: {name}: matrices are not bit-identical")
        failed = True

    packed = grid["ns_per_cell"]["packed"]
    limit = base["packed_ns_per_cell"] * factor
    print(f"{name}: packed ns/cell: {packed:.1f} (limit {limit:.1f} = "
          f"{base['packed_ns_per_cell']} baseline x {factor})")
    if packed > limit:
        print(f"FAIL: {name}: packed ns/cell regressed past the baseline "
              "limit")
        failed = True

    speedup = grid["speedup"]["packed_vs_interpreted"]
    print(f"{name}: speedup packed vs interpreted: {speedup:.2f}x "
          f"(min {min_speedup}x)")
    if speedup < min_speedup:
        print(f"FAIL: {name}: packed replay no longer meaningfully beats "
              "the interpreted path")
        failed = True

sharded = measured.get("sharded")
if sharded is None:
    print("FAIL: sharded-throughput grid missing from the bench JSON")
    failed = True
else:
    if not sharded.get("bit_identical", False):
        print("FAIL: sharded: merged accumulator differs from the "
              "single-process run")
        failed = True
    floor = baseline["sharded"]["min_cells_per_sec"] / factor
    for k, cps in sorted(sharded["cells_per_sec"].items()):
        print(f"sharded {k}: {cps:.0f} cells/sec (floor {floor:.0f} = "
              f"{baseline['sharded']['min_cells_per_sec']} baseline / "
              f"{factor})")
        if cps < floor:
            print(f"FAIL: sharded {k}: scheduler throughput fell below "
                  "the baseline floor")
            failed = True
    inputs = sharded["grid"]["inputs"]
    resolved = sharded.get("trace_store_misses")
    if resolved is None:
        print("FAIL: sharded: trace_store_misses missing from the bench "
              "JSON")
        failed = True
    else:
        for k, misses in sorted(resolved.items()):
            limit = int(k[1:]) * inputs
            print(f"sharded {k}: {misses} inputs resolved (limit {limit} = "
                  f"{k[1:]} worker threads x {inputs} inputs)")
            if misses > limit:
                print(f"FAIL: sharded {k}: a job resolved inputs more than "
                      "once per worker thread; resident grids are not "
                      "reused")
                failed = True

attached = measured.get("attached")
if attached is None:
    print("FAIL: attached-worker throughput grid missing from the bench "
          "JSON")
    failed = True
else:
    if not attached.get("bit_identical", False):
        print("FAIL: attached: merged accumulator differs from the "
              "single-process run")
        failed = True
    floor = baseline["attached"]["min_cells_per_sec"] / factor
    for k, cps in sorted(attached["cells_per_sec"].items()):
        print(f"attached {k}: {cps:.0f} cells/sec (floor {floor:.0f} = "
              f"{baseline['attached']['min_cells_per_sec']} baseline / "
              f"{factor})")
        if cps < floor:
            print(f"FAIL: attached {k}: remote-worker throughput fell "
                  "below the baseline floor")
            failed = True

collapse = measured.get("collapse")
if collapse is None:
    print("FAIL: trace-class collapse grid missing from the bench JSON")
    failed = True
else:
    if not collapse.get("bit_identical", False):
        print("FAIL: collapse: collapsed accumulator differs from the "
              "uncollapsed run")
        failed = True
    classes = collapse["trace_classes"]
    inputs = collapse["grid"]["inputs"]
    print(f"collapse: {classes} trace classes over {inputs} inputs")
    if classes >= inputs:
        print("FAIL: collapse is enabled but found no duplicate classes on "
              "the duplicate-heavy grid — the dedup is inert")
        failed = True
    speedup = collapse["speedup"]["collapsed_vs_uncollapsed"]
    min_collapse = baseline["collapse"]["min_speedup"]
    print(f"collapse: speedup collapsed vs uncollapsed: {speedup:.2f}x "
          f"(min {min_collapse}x)")
    if speedup < min_collapse:
        print("FAIL: collapse no longer meaningfully beats the "
              "uncollapsed streaming path")
        failed = True
    ns = collapse["ns_per_cell"]["collapsed"]
    limit = baseline["collapse"]["collapsed_ns_per_cell"] * factor
    print(f"collapse: collapsed ns/cell: {ns:.1f} (limit {limit:.1f})")
    if ns > limit:
        print("FAIL: collapsed ns/cell regressed past the baseline limit")
        failed = True

resolve = measured.get("resolve")
if resolve is None:
    print("FAIL: cold-resolve section missing from the bench JSON")
    failed = True
else:
    us = resolve["us_per_input"]
    base = baseline["resolve"]["us_per_input"]
    limit = base * factor
    print(f"resolve: {us:.2f} us/input over {resolve['inputs']} inputs "
          f"(limit {limit:.2f} = {base} baseline x {factor})")
    if us > limit:
        print("FAIL: cold resolve regressed past the baseline limit")
        failed = True

states = measured.get("states")
if states is None:
    print("FAIL: state-collapse section missing from the bench JSON")
    failed = True
else:
    for name, base in baseline["state_collapse"]["grids"].items():
        grid = states["grids"].get(name)
        if grid is None:
            print(f"FAIL: states: grid '{name}' missing from the bench JSON")
            failed = True
            continue
        if not grid.get("bit_identical", False):
            print(f"FAIL: states {name}: collapsed accumulator differs from "
                  "the uncollapsed walk")
            failed = True
        replayed = grid["cells_replayed"]
        print(f"states {name}: {replayed} of {grid['cells_walked']} cells "
              f"replayed (limit {base['cells_replayed']})")
        if replayed > base["cells_replayed"]:
            print(f"FAIL: states {name}: more cells replayed than the "
                  "baseline count; the state-axis collapse lost groups")
            failed = True
        ns = grid["ns_per_cell"]
        limit = base["ns_per_cell"] * factor
        print(f"states {name}: {ns:.1f} ns per grid cell (limit "
              f"{limit:.1f} = {base['ns_per_cell']} baseline x {factor})")
        if ns > limit:
            print(f"FAIL: states {name}: ns per grid cell regressed past "
                  "the baseline limit")
            failed = True

sys.exit(1 if failed else 0)
PY
fi
