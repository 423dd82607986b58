// composition_test.cpp — Compositional predictability (the paper's
// Section 5 future work): exactness for additive architectures, the
// mediant bounds, and the failure of additivity on the domino pipeline.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "cache/set_assoc.h"
#include "core/composition.h"
#include "core/definitions.h"
#include "isa/ast.h"
#include "isa/exec.h"
#include "isa/workloads.h"
#include "pipeline/domino_program.h"
#include "pipeline/inorder.h"
#include "pipeline/memory_iface.h"

namespace pred::core {
namespace {

TEST(Composition, SingleComponentIsItself) {
  const std::vector<ComponentRange> cs{{"cache", 10, 40}};
  EXPECT_DOUBLE_EQ(composedPredictability(cs), 0.25);
}

TEST(Composition, PerfectComponentsComposePerfectly) {
  const std::vector<ComponentRange> cs{{"a", 10, 10}, {"b", 5, 5}};
  EXPECT_DOUBLE_EQ(composedPredictability(cs), 1.0);
}

TEST(Composition, AddingAPerfectComponentImproves) {
  // A state-invariant component dilutes the variable one: predictability
  // rises (the constant part dominates the quotient).
  const std::vector<ComponentRange> variable{{"cache", 10, 40}};
  const std::vector<ComponentRange> diluted{{"cache", 10, 40},
                                            {"core", 100, 100}};
  EXPECT_GT(composedPredictability(diluted),
            composedPredictability(variable));
}

TEST(Composition, MediantBoundsHoldOnRandomComponents) {
  std::mt19937_64 rng(2024);
  std::uniform_int_distribution<Cycles> lo(1, 100);
  for (int iter = 0; iter < 500; ++iter) {
    std::vector<ComponentRange> cs;
    const int n = 1 + static_cast<int>(rng() % 5);
    for (int k = 0; k < n; ++k) {
      const Cycles a = lo(rng);
      const Cycles b = a + (rng() % 100);
      cs.push_back(ComponentRange{"c" + std::to_string(k), a, b});
    }
    const auto bounds = composeWithBounds(cs);
    EXPECT_TRUE(bounds.consistent())
        << "composed " << bounds.composed << " not in [" << bounds.lower
        << ", " << bounds.upper << "]";
  }
}

TEST(Composition, RejectsInvertedRange) {
  EXPECT_THROW(composedPredictability({{"bad", 5, 3}}), std::runtime_error);
}

TEST(Composition, RejectsAllZero) {
  EXPECT_THROW(composedPredictability({{"a", 0, 0}}), std::runtime_error);
}

// The headline theorem, verified against the executable system: for the
// ADDITIVE in-order pipeline, the system SIPr derived from per-component
// ranges equals the exhaustively measured SIPr.
TEST(Composition, ExactForAdditiveInOrderPipeline) {
  const auto prog = isa::ast::compileBranchy(isa::workloads::sumLoop(12));
  const auto trace = isa::FunctionalCore::run(prog, isa::Input{}).trace;

  const cache::CacheGeometry dGeom{4, 8, 2};
  const cache::CacheGeometry iGeom{4, 8, 2};
  const cache::CacheTiming dTiming{1, 10};
  const cache::CacheTiming iTiming{0, 6};

  // Paired (dcache, icache) states, warmed as the inorder-lru-icache
  // preset warms them: the data cache over the program's data, the
  // I-cache over its pc range under a derived seed.
  const int numStates = 10;
  const std::uint64_t seed = 5;
  const auto dStates = cache::enumerateInitialStates(
      dGeom, cache::Policy::LRU, dTiming, numStates, seed,
      std::min(prog.layout.memWords, 8 * dGeom.capacityWords()));
  const auto iStates = cache::enumerateInitialStates(
      iGeom, cache::Policy::LRU, iTiming, numStates, seed * 31 + 7,
      std::max<std::int64_t>(static_cast<std::int64_t>(prog.size()),
                             2 * iGeom.capacityWords()));

  // Exhaustive system-level SIPr: the whole pipeline from each state pair.
  pipeline::InOrderConfig cfg;
  const auto systemMatrix = TimingMatrix::compute(
      [&](std::size_t q, std::size_t) {
        pipeline::CachedMemory dmem(dStates[q]);
        pipeline::CachedMemory imem(iStates[q]);
        pipeline::InOrderPipeline pipe(cfg, &dmem, nullptr, &imem);
        return pipe.run(trace);
      },
      dStates.size(), 1);
  const auto systemSipr = stateInducedPredictability(systemMatrix);

  // Component ranges: replay the SAME trace through each component alone.
  Cycles computeCost = 0;
  {
    pipeline::FixedLatencyMemory zero(0);
    pipeline::InOrderPipeline pipe(cfg, &zero);
    computeCost = pipe.run(trace);  // core-only time (mem latency 0)
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
  const std::vector<ComponentRange> components{
      {"core", computeCost, computeCost},
      {"dcache", dLo, dHi},
      {"icache", iLo, iHi},
  };
  const double composed = composedPredictability(components);
  EXPECT_NEAR(composed, systemSipr.value, 1e-12)
      << "additive decomposition must be exact";
  const auto bounds = composeWithBounds(components);
  EXPECT_TRUE(bounds.consistent());
}

// Non-additivity of the out-of-order pipeline: no constant per-repetition
// component decomposition can reproduce two diverging linear regimes.
TEST(Composition, DominoPipelineIsNotAdditive) {
  // If timing were additive in (initial state, program), the difference
  // T(q2, p_n) - T(q1, p_n) would be a constant independent of n (the
  // state components' contribution).  It grows linearly instead.
  const auto d1 = pipeline::dominoTime(2, pipeline::dominoStateQ2()) -
                  pipeline::dominoTime(2, pipeline::dominoStateQ1());
  const auto d2 = pipeline::dominoTime(20, pipeline::dominoStateQ2()) -
                  pipeline::dominoTime(20, pipeline::dominoStateQ1());
  EXPECT_GT(d2, d1);
}

}  // namespace
}  // namespace pred::core
