// composition_related.cpp — Experiments E18/E19: the paper's Section 5
// future work (compositional predictability) and Section 4 related-work
// notions evaluated on the same executable systems.

#include <algorithm>

#include "analysis/wcet_bounds.h"
#include "bench_common.h"
#include "cache/set_assoc.h"
#include "core/composition.h"
#include "core/definitions.h"
#include "core/related.h"
#include "core/report.h"
#include "exp/engine.h"
#include "exp/platform.h"
#include "isa/exec.h"
#include "isa/workloads.h"
#include "pipeline/domino_program.h"
#include "pipeline/inorder.h"
#include "pipeline/memory_iface.h"

namespace {

using namespace pred;
using core::Cycles;

void runComposition() {
  bench::printHeader("Section 5 (future work)",
                     "compositional predictability");

  const auto prog = isa::ast::compileBranchy(isa::workloads::sumLoop(16));
  const auto trace = isa::FunctionalCore::run(prog, isa::Input{}).trace;

  const cache::CacheGeometry dGeom{4, 8, 2};
  const cache::CacheGeometry iGeom{4, 8, 2};
  const cache::CacheTiming dTiming{1, 10};
  const cache::CacheTiming iTiming{0, 6};
  pipeline::InOrderConfig cfg;

  // Paired (dcache, icache) states, warmed as the inorder-lru-icache preset
  // warms them; the whole system is timed from each pair.
  const int numStates = 12;
  const std::uint64_t seed = 5;
  const auto dStates = cache::enumerateInitialStates(
      dGeom, cache::Policy::LRU, dTiming, numStates, seed,
      std::min(prog.layout.memWords, 8 * dGeom.capacityWords()));
  const auto iStates = cache::enumerateInitialStates(
      iGeom, cache::Policy::LRU, iTiming, numStates, seed * 31 + 7,
      std::max<std::int64_t>(static_cast<std::int64_t>(prog.size()),
                             2 * iGeom.capacityWords()));
  const auto systemMatrix = core::TimingMatrix::compute(
      [&](std::size_t q, std::size_t) {
        pipeline::CachedMemory dmem(dStates[q]);
        pipeline::CachedMemory imem(iStates[q]);
        pipeline::InOrderPipeline pipe(cfg, &dmem, nullptr, &imem);
        return pipe.run(trace);
      },
      dStates.size(), 1);
  const auto systemSipr = core::stateInducedPredictability(systemMatrix);

  // Component ranges from replaying the trace through each unit alone.
  Cycles computeCost = 0;
  {
    pipeline::FixedLatencyMemory zero(0);
    pipeline::InOrderPipeline pipe(cfg, &zero);
    computeCost = pipe.run(trace);
  }
  Cycles dLo = ~Cycles{0}, dHi = 0, iLo = ~Cycles{0}, iHi = 0;
  for (std::size_t q = 0; q < dStates.size(); ++q) {
    cache::SetAssocCache dc = dStates[q];
    Cycles dCost = 0;
    for (const auto& rec : trace) {
      if (rec.memWordAddr >= 0) dCost += dc.access(rec.memWordAddr).latency;
    }
    dLo = std::min(dLo, dCost);
    dHi = std::max(dHi, dCost);
    cache::SetAssocCache ic = iStates[q];
    Cycles iCost = 0;
    for (const auto& rec : trace) iCost += ic.access(rec.pc).latency;
    iLo = std::min(iLo, iCost);
    iHi = std::max(iHi, iCost);
  }
  const std::vector<core::ComponentRange> components{
      {"core (state-invariant)", computeCost, computeCost},
      {"data cache", dLo, dHi},
      {"instruction cache", iLo, iHi},
  };

  core::TextTable t({"component", "min cost", "max cost", "component SIPr"});
  for (const auto& c : components) {
    t.addRow({c.name, std::to_string(c.minCost), std::to_string(c.maxCost),
              core::fmt(c.ratio(), 4)});
  }
  std::printf("%s", t.render().c_str());

  const auto bounds = core::composeWithBounds(components);
  bench::printKV("composed SIPr (derived from components)",
                 core::fmt(bounds.composed, 6));
  bench::printKV("measured SIPr (exhaustive, whole system)",
                 core::fmt(systemSipr.value, 6));
  bench::printKV("mediant bounds [worst comp., best comp.]",
                 "[" + core::fmt(bounds.lower, 4) + ", " +
                     core::fmt(bounds.upper, 4) + "]");
  std::printf(
      "for the ADDITIVE in-order architecture the derivation is EXACT —\n"
      "the predictability of the whole follows from its components.\n\n");

  // And the negative result: the OoO pipeline is not additive.
  const auto d2 = pipeline::dominoTime(2, pipeline::dominoStateQ2()) -
                  pipeline::dominoTime(2, pipeline::dominoStateQ1());
  const auto d20 = pipeline::dominoTime(20, pipeline::dominoStateQ2()) -
                   pipeline::dominoTime(20, pipeline::dominoStateQ1());
  bench::printKV("OoO state-contribution at n=2 vs n=20",
                 std::to_string(d2) + " vs " + std::to_string(d20) +
                     " cycles (grows: NOT additive, no composition)");
}

void runRelated() {
  bench::printHeader("Section 4 (related work)",
                     "other predictability notions on the same systems");

  // Bernardes on dynamical systems.
  std::printf("Bernardes [3], discrete dynamical systems (delta = 1e-6,\n"
              "eps = 0.05, horizon 60):\n");
  core::TextTable bt({"system", "predictable", "worst deviation"});
  const std::pair<std::string, core::DynamicalSystem> systems[] = {
      {"contraction x/2", {[](double x) { return x / 2; }}},
      {"identity", {[](double x) { return x; }}},
      {"logistic r=4 (chaos)", {[](double x) { return 4 * x * (1 - x); }}},
  };
  for (const auto& [name, sys] : systems) {
    const auto r = core::bernardesPredictableAt(sys, 0.2, 1e-6, 0.05, 60);
    bt.addRow({name, r.predictable ? "yes" : "no",
               core::fmt(r.worstDeviation, 6)});
  }
  std::printf("%s", bt.render().c_str());

  // Thiele/Wilhelm + holistic on the timing system.
  const auto prog = isa::ast::compileBranchy(isa::workloads::linearSearch(10));
  isa::Cfg cfg(prog);
  analysis::BoundsInputs bi;
  bi.dataCacheGeom = cache::CacheGeometry{4, 8, 2};
  bi.cacheTiming = cache::CacheTiming{1, 10};
  auto inputs = isa::workloads::randomArrayInputs(prog, "a", 10, 12, 3, 12);
  for (auto& in : inputs) {
    in = isa::mergeInputs(in, isa::varInput(prog, "key", 4));
  }
  exp::PlatformOptions opts;
  opts.numStates = 8;
  opts.seed = 11;
  opts.dataGeom = bi.dataCacheGeom;
  opts.dataTiming = bi.cacheTiming;
  opts.inorder = bi.pipeConfig;
  const auto model =
      exp::PlatformRegistry::instance().make("inorder-lru", prog, opts);
  exp::ExperimentEngine engine;
  const auto m = engine.computeMatrix(*model, prog, inputs);
  const auto d = analysis::figure1Decomposition(cfg, bi, m.bcet(), m.wcet());

  std::printf("\nlinear search on in-order + LRU (the Figure-1 system):\n");
  bench::printKV("Thiele/Wilhelm [26] (analysis-relative)",
                 core::thieleWilhelm(d).summary());
  bench::printKV("Kirner/Puschner [11] holistic",
                 core::kirnerPuschnerHolistic(m, d).summary());
  bench::printKV("paper's inherent Pr (Def. 3)",
                 core::fmt(core::timingPredictability(m).value, 4));
  std::printf(
      "the Thiele/Wilhelm gaps measure the ANALYSIS, the paper's Pr the\n"
      "SYSTEM; the holistic notion multiplies both — Section 4's landscape\n"
      "reproduced as numbers on one system.\n");
}

void BM_ComposedPredictability(benchmark::State& state) {
  std::vector<core::ComponentRange> cs{{"a", 10, 40}, {"b", 100, 100},
                                       {"c", 5, 25}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::composeWithBounds(cs));
  }
}
BENCHMARK(BM_ComposedPredictability);

}  // namespace

int main(int argc, char** argv) {
  runComposition();
  runRelated();
  return pred::bench::runBenchmarks(argc, argv);
}
