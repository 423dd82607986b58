// table1_branch_prediction.cpp — Experiment E3: Table 1, row 1.
//
// WCET-oriented static branch prediction (Bodin & Puaut [5]; Burguière &
// Rochange [6]).  Property: number of branch mispredictions.  Uncertainty:
// initial predictor state (dynamic schemes only) and program input.
// Quality measure: the statically computed bound, and the variability in
// misprediction counts.
//
// The row's property (misprediction counts) is measured on the branch
// substrate directly; the catalog row additionally binds the timing view —
// the same workload queried on "inorder-lru-bimodal" (predictor tables in
// the Q axis) vs "inorder-lru" (no predictor) shows how predictor state
// uncertainty surfaces in execution time.

#include <set>

#include "bench_common.h"
#include "branch/dynamic.h"
#include "branch/static_schemes.h"
#include "core/report.h"
#include "isa/cfg.h"
#include "study/catalog.h"
#include "study/query.h"

namespace {

using namespace pred;

void runRow() {
  bench::printHeader("Table 1, row 1", "WCET-oriented static branch prediction");

  const auto& inst = study::catalog::row("static branch prediction");
  bench::printInstance(inst);

  const auto w = study::WorkloadRegistry::instance().make(inst.spec.workload);
  const auto& prog = w.program;
  const auto& inputs = w.inputs;
  isa::Cfg cfg(prog);

  exp::ExperimentEngine engine;
  auto traceOf = [&engine, &prog](const isa::Input& in) -> const isa::Trace& {
    return *engine.traceStore()
                .entryRefFor(prog, in, exp::ReplayForm::None)
                .trace;
  };

  // Static schemes under test.
  auto wcetScheme = branch::wcetOriented(cfg);
  auto btfnScheme = branch::btfn(prog);
  auto takenScheme = branch::alwaysTaken(prog);

  core::TextTable t({"scheme", "static bound", "measured min", "measured max",
                     "variability over initial predictor state"});

  auto staticRow = [&](branch::StaticPredictor& scheme) {
    std::uint64_t lo = ~0ULL, hi = 0;
    for (const auto& in : inputs) {
      auto s = scheme;
      const auto m = branch::countMispredictions(traceOf(in), s);
      lo = std::min(lo, m);
      hi = std::max(hi, m);
    }
    t.addRow({scheme.name(),
              std::to_string(branch::mispredictionBound(cfg, scheme)),
              std::to_string(lo), std::to_string(hi),
              "0 (stateless)"});
  };
  staticRow(wcetScheme);
  staticRow(btfnScheme);
  staticRow(takenScheme);

  // Dynamic predictors: sweep initial table states.
  auto dynamicRow = [&](const std::string& name, auto makePredictor) {
    std::uint64_t lo = ~0ULL, hi = 0;
    std::uint64_t stateSpread = 0;
    for (const auto& in : inputs) {
      const auto& trace = traceOf(in);
      std::uint64_t perInputLo = ~0ULL, perInputHi = 0;
      for (int init = 0; init <= 3; ++init) {
        auto p = makePredictor(init);
        const auto m = branch::countMispredictions(trace, *p);
        perInputLo = std::min(perInputLo, m);
        perInputHi = std::max(perInputHi, m);
      }
      lo = std::min(lo, perInputLo);
      hi = std::max(hi, perInputHi);
      stateSpread = std::max(stateSpread, perInputHi - perInputLo);
    }
    t.addRow({name, "none (state-dependent)", std::to_string(lo),
              std::to_string(hi), std::to_string(stateSpread)});
  };
  dynamicRow("bimodal-2bit", [](int init) {
    return std::make_unique<branch::BimodalPredictor>(64, init);
  });
  dynamicRow("gshare", [](int init) {
    return std::make_unique<branch::GsharePredictor>(64, 6, 0, init);
  });
  dynamicRow("one-bit", [](int init) {
    return std::make_unique<branch::OneBitPredictor>(64, init != 0);
  });

  std::printf("%s", t.render().c_str());

  // Timing view via the catalog binding: predictor-state uncertainty in Q.
  const auto report = study::compile(inst.spec).runAll(engine);
  bench::printKV("SIPr with bimodal predictor state in Q (" +
                     report.findings[0].platform + ")",
                 core::fmt(report.findings[0].sipr.value, 4));
  bench::printKV("SIPr without predictor (" + report.findings[1].platform +
                     ")",
                 core::fmt(report.findings[1].sipr.value, 4));
  std::printf(
      "shape reproduced: static schemes carry a statically computed bound\n"
      "and zero initial-state variability; dynamic schemes have no bound\n"
      "and vary with the initial predictor state.\n");
}

void BM_MispredictionCount(benchmark::State& state) {
  const auto w = study::WorkloadRegistry::instance().make("bubblesort-10");
  const auto trace = isa::FunctionalCore::run(w.program, w.inputs[0]).trace;
  for (auto _ : state) {
    branch::GsharePredictor p(64, 6);
    benchmark::DoNotOptimize(branch::countMispredictions(trace, p));
  }
}
BENCHMARK(BM_MispredictionCount);

}  // namespace

int main(int argc, char** argv) {
  runRow();
  return pred::bench::runBenchmarks(argc, argv);
}
