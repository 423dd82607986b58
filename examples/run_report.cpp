// run_report.cpp — The observability layer end to end: run one Table-1
// style query (a registry workload on a registry platform), then read the
// RunReport the engine attached to the Finding.
//
// The report is the engine's telemetry for EXACTLY this evaluation — a
// snapshot delta, not cumulative engine totals: unified counters (cells
// walked, tiles, grid walks, trace-store hits/misses), per-phase timing
// spans (trace resolution, packed replay, streaming merge), and per-worker
// pool utilization.  It never leaks into the Finding's table/csv/json
// renderings, so golden files stay stable; render it explicitly with
// text() or json().
//
// The same wire format crosses processes: every grid worker ships one per
// shard, and pred-grid-server folds a job's reports into the fleet view
// that `pred-grid-client stats` prints (slowest shard, wall skew,
// per-shard trace-cache hit rates).
//
// Build & run:   ./build/example_run_report [--json]

#include <cstdio>
#include <cstring>

#include "exp/engine.h"
#include "study/query.h"

using namespace pred;

int main(int argc, char** argv) {
  const bool asJson = argc > 1 && std::strcmp(argv[1], "--json") == 0;

  // A Table-1 row: bubblesort over all 8-element permutations, against the
  // in-order pipeline with an LRU data cache (|Q| = 8 initial states).
  const auto query = study::Query()
                         .workload("bubblesort-8")
                         .platform("inorder-lru")
                         .mode(study::Exhaustive{});

  exp::ExperimentEngine engine;
  const auto finding = query.run(engine);

  if (asJson) {
    // Machine-readable form, e.g. for dashboards next to BENCH_*.json.
    std::printf("%s\n", finding.report->json().c_str());
    return 0;
  }

  std::printf("%s\n", finding.summary().c_str());
  std::printf("\n== run report (per-run delta, rendered on demand)\n\n%s",
              finding.report->text().c_str());

  // A second run on the same engine resolves no new traces: the delta
  // report makes the warm trace cache visible immediately.
  const auto again = query.run(engine);
  std::printf("\n== second run on the same engine (trace cache now warm)\n");
  std::printf("   trace_store.misses: %llu -> %llu, trace_store.hits: "
              "%llu -> %llu\n",
              static_cast<unsigned long long>(
                  finding.report->counter("trace_store.misses")),
              static_cast<unsigned long long>(
                  again.report->counter("trace_store.misses")),
              static_cast<unsigned long long>(
                  finding.report->counter("trace_store.hits")),
              static_cast<unsigned long long>(
                  again.report->counter("trace_store.hits")));
  return 0;
}
