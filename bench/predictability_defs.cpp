// predictability_defs.cpp — Experiment E17: the definitional properties of
// Section 2 measured on real systems, plus the ablations DESIGN.md calls
// out:
//   * Pr <= min(SIPr, IIPr) (Defs. 3-5 factorization) on executable systems;
//   * extent-of-uncertainty refinement: shrinking Q and I monotonically
//     raises Pr;
//   * exhaustive vs sampled evaluation: sampling OVER-estimates
//     predictability (min over a subset) — quantified;
//   * ratio vs range vs variance quality measures side by side.

#include "bench_common.h"
#include "core/definitions.h"
#include "core/measures.h"
#include "core/report.h"
#include "exp/engine.h"
#include "exp/platform.h"
#include "isa/workloads.h"

namespace {

using namespace pred;

/// The full |Q| x |I| matrix: the subset, sampling and quality-measure
/// ablations below all read cells of it.
core::TimingMatrix makeSystem() {
  const auto prog = isa::ast::compileBranchy(isa::workloads::linearSearch(10));
  auto inputs = isa::workloads::randomArrayInputs(prog, "a", 10, 16, 42, 10);
  for (auto& in : inputs) {
    in = isa::mergeInputs(in, isa::varInput(prog, "key", 4));
  }
  exp::PlatformOptions opts;
  opts.numStates = 12;
  opts.seed = 7;
  opts.dataGeom = cache::CacheGeometry{4, 8, 2};
  opts.dataTiming = cache::CacheTiming{1, 10};
  const auto model =
      exp::PlatformRegistry::instance().make("inorder-lru", prog, opts);
  exp::ExperimentEngine engine;
  return engine.computeMatrix(*model, prog, inputs);
}

void runDefs() {
  bench::printHeader("Definitions 3-5", "properties and ablations");

  const auto m = makeSystem();

  const auto pr = core::timingPredictability(m);
  const auto si = core::stateInducedPredictability(m);
  const auto ii = core::inputInducedPredictability(m);

  std::printf("system: linear search on in-order + LRU cache, |Q| = %zu, "
              "|I| = %zu\n\n",
              m.numStates(), m.numInputs());
  bench::printKV("Pr   (Def. 3, both sources)", pr.summary());
  bench::printKV("SIPr (Def. 4, state only)", si.summary());
  bench::printKV("IIPr (Def. 5, input only)", ii.summary());
  bench::printKV("factorization Pr <= min(SIPr, IIPr)",
                 pr.value <= std::min(si.value, ii.value) + 1e-12 ? "holds"
                                                                  : "VIOLATED");

  // Extent-of-uncertainty refinement: grow the sets and watch Pr fall.
  std::printf("\nextent-of-uncertainty refinement (partial knowledge):\n");
  core::TextTable ext({"|Q| known subset", "|I| known subset", "Pr"});
  for (const std::size_t nq : {1u, 4u, 12u}) {
    for (const std::size_t ni : {1u, 8u, 16u}) {
      std::vector<std::size_t> qs, is;
      for (std::size_t q = 0; q < std::min(nq, m.numStates()); ++q)
        qs.push_back(q);
      for (std::size_t i = 0; i < std::min(ni, m.numInputs()); ++i)
        is.push_back(i);
      const auto sub = core::timingPredictability(m, qs, is);
      ext.addRow({std::to_string(qs.size()), std::to_string(is.size()),
                  core::fmt(sub.value, 4)});
    }
  }
  std::printf("%s", ext.render().c_str());
  std::printf("Pr is monotonically non-increasing in the extent of "
              "uncertainty (more unknown = less predictable).\n");

  // Sampled vs exhaustive.
  std::printf("\nexhaustive vs sampled evaluation of Def. 3:\n");
  core::TextTable samp({"samples", "estimated Pr", "exhaustive Pr",
                        "overestimation"});
  auto fn = [&](std::size_t q, std::size_t i) { return m.at(q, i); };
  for (const std::size_t n : {4u, 16u, 64u, 192u}) {
    const auto est = core::sampledTimingPredictability(fn, m.numStates(),
                                                       m.numInputs(), n, 99);
    samp.addRow({std::to_string(n), core::fmt(est.value, 4),
                 core::fmt(pr.value, 4),
                 core::fmt(est.value / pr.value, 3) + "x"});
  }
  std::printf("%s", samp.render().c_str());
  std::printf("sampling sees a subset of Q x I, so its min/max quotient can\n"
              "only OVER-estimate predictability — measurement-based\n"
              "arguments are upper bounds, as the paper warns.\n");

  // Quality-measure ablation.
  std::printf("\nquality-measure ablation on the same system:\n");
  const auto stats = core::computeStats(m.values());
  core::TextTable qm({"measure", "value"});
  qm.addRow({"ratio BCET/WCET (paper's Pr)", core::fmt(stats.ratio(), 4)});
  qm.addRow({"range WCET-BCET", core::fmt(stats.range(), 0) + " cycles"});
  qm.addRow({"variance", core::fmt(stats.variance, 1)});
  qm.addRow({"std deviation", core::fmt(stats.stddev, 2) + " cycles"});
  std::printf("%s", qm.render().c_str());
}

void BM_DefinitionEvaluators(benchmark::State& state) {
  const auto m = makeSystem();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::timingPredictability(m));
    benchmark::DoNotOptimize(core::stateInducedPredictability(m));
    benchmark::DoNotOptimize(core::inputInducedPredictability(m));
  }
}
BENCHMARK(BM_DefinitionEvaluators);

}  // namespace

int main(int argc, char** argv) {
  runDefs();
  return pred::bench::runBenchmarks(argc, argv);
}
