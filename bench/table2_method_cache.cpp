// table2_method_cache.cpp — Experiment E10: Table 2, row 1.
//
// Method cache (Schoeberl [23]; Metzlaff et al. [15]).  Property: memory
// access time.  Uncertainty: initial cache state.  Quality measure:
// simplicity of analysis — the number of program points at which a miss
// can occur collapses from "every instruction" (conventional I-cache) to
// "call/return sites".
//
// The simulation loops live in src/cache (compareMethodCacheAgainstICache);
// the catalog row additionally binds the timing view: the same call-heavy
// workload queried on "inorder-lru-icache" shows the I-cache-state-induced
// execution-time variability the method cache removes by construction.

#include "bench_common.h"
#include "cache/method_cache.h"
#include "core/report.h"
#include "study/catalog.h"
#include "study/query.h"

namespace {

using namespace pred;

void runRow() {
  bench::printHeader("Table 2, row 1", "method cache / function scratchpad");

  const auto& inst = study::catalog::row("Method cache");
  bench::printInstance(inst);

  const auto w = study::WorkloadRegistry::instance().make(inst.spec.workload);
  exp::ExperimentEngine engine;
  const auto& trace =
      *engine.traceStore()
           .entryRefFor(w.program, w.inputs[0], exp::ReplayForm::None)
           .trace;

  const auto cmp = cache::compareMethodCacheAgainstICache(
      w.program, trace, /*capacityInstrs=*/96,
      cache::MethodCacheTiming{0, 4, 1}, cache::CacheGeometry{4, 8, 2},
      cache::Policy::LRU, cache::CacheTiming{0, 8});

  core::TextTable t({"design", "potential miss points (static)",
                     "misses (measured)", "stall cycles"});
  t.addRow({"method cache", std::to_string(cmp.methodMissPoints),
            std::to_string(cmp.methodCacheMisses),
            std::to_string(cmp.methodCacheStallCycles)});
  t.addRow({"conventional I-cache", std::to_string(cmp.icacheMissPoints),
            std::to_string(cmp.icacheMisses),
            std::to_string(cmp.icacheStallCycles)});
  std::printf("%s", t.render().c_str());
  bench::printKV("miss-point reduction",
                 core::fmt(static_cast<double>(cmp.icacheMissPoints) /
                               static_cast<double>(cmp.methodMissPoints),
                           1) + "x fewer program points to analyze");

  // Timing view via the catalog binding: I-cache state in the Q axis.
  const auto finding = study::compile(inst.spec).run(engine);
  bench::printKV("SIPr over initial I-cache states (" + finding.platform +
                     ")",
                 core::fmt(finding.sipr.value, 4));
  std::printf(
      "shape reproduced: with the method cache an analysis must consider\n"
      "cache behavior only at call/return sites (every other fetch is a\n"
      "guaranteed hit: the executing function is resident by construction).\n");
}

void BM_MethodCache(benchmark::State& state) {
  const auto w =
      study::WorkloadRegistry::instance().make("callroundrobin-8x6x4");
  const auto trace = isa::FunctionalCore::run(w.program, w.inputs[0]).trace;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache::compareMethodCacheAgainstICache(
        w.program, trace, 96, cache::MethodCacheTiming{},
        cache::CacheGeometry{4, 8, 2}, cache::Policy::LRU,
        cache::CacheTiming{0, 8}));
  }
}
BENCHMARK(BM_MethodCache);

}  // namespace

int main(int argc, char** argv) {
  runRow();
  return pred::bench::runBenchmarks(argc, argv);
}
