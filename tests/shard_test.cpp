// shard_test.cpp — The gate for the process-sharded grid substrate
// (exp/shard.h): for any shard count and any shard shape, merging shard
// accumulators must reproduce the single-process reduceCells result
// value-for-value AND witness-for-witness — distribution cannot change a
// witness, because the smallest-index tie-break makes the merge
// order-independent.  Plus the wire formats both sides of a process
// boundary depend on: ShardSpec and StreamingMeasures round-trips, and
// strict parse errors on malformed input.  The same merge behind the one
// fan-out a Query has, Query::runDistributed, is checked against
// Query::run in grid_test.cpp (GridQuery).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/measures.h"
#include "exp/engine.h"
#include "exp/platform.h"
#include "exp/shard.h"
#include "study/workloads.h"
#include "witness_expect.h"

namespace pred {
namespace {

using core::StreamingMeasures;
using exp::ShardSpec;

/// One grid configuration the identity matrix below sweeps: a registry
/// platform x workload pair plus options.  Covers a packed OOO preset, an
/// in-order preset, and a non-power-of-two cache geometry (the packed
/// sim's division fallback).
struct GridCase {
  const char* label;
  const char* platform;
  const char* workload;
  exp::PlatformOptions options;
};

std::vector<GridCase> gridCases() {
  exp::PlatformOptions dflt;
  dflt.numStates = 8;

  exp::PlatformOptions nonPow2;
  nonPow2.numStates = 6;
  nonPow2.dataGeom = cache::CacheGeometry{3, 5, 2};  // non-pow2 line & sets

  return {
      {"ooo-packed", "ooo-fifo", "bubblesort-8", dflt},
      {"inorder", "inorder-lru", "linearsearch-12", dflt},
      {"inorder-nonpow2-geom", "inorder-lru", "bubblesort-8", nonPow2},
  };
}

ShardSpec wholeSpecFor(const GridCase& c, std::size_t nQ, std::size_t nI) {
  ShardSpec whole;
  whole.platform = c.platform;
  whole.workload = c.workload;
  whole.options = c.options;
  whole.qEnd = nQ;
  whole.iEnd = nI;
  return whole;
}

TEST(ShardIdentity, MergedShardsEqualSingleProcessForAnyShardCount) {
  for (const auto& c : gridCases()) {
    const auto w = study::WorkloadRegistry::instance().make(c.workload);
    const auto model = exp::PlatformRegistry::instance().make(
        c.platform, w.program, c.options);
    exp::ExperimentEngine engine;
    const auto single = engine.reduceCells(*model, w.program, w.inputs);

    const auto whole =
        wholeSpecFor(c, model->numStates(), w.inputs.size());
    for (const std::size_t k : {1u, 2u, 3u, 8u}) {
      const auto plan = exp::planShards(whole, k);
      std::vector<StreamingMeasures> parts;
      for (const auto& s : plan) {
        parts.push_back(exp::evaluateShard(s, w.program, w.inputs));
      }
      const auto merged =
          exp::ExperimentEngine::mergeShards(std::move(parts));
      const std::string label =
          std::string(c.label) + " k=" + std::to_string(k);
      // Bit-for-bit accumulator identity subsumes value and witness
      // identity of every derived measure...
      EXPECT_TRUE(merged.identicalTo(single)) << label;
      EXPECT_EQ(merged.serialize(), single.serialize()) << label;
      // ...but assert the paper-facing quantities explicitly too.
      EXPECT_EQ(merged.bcet(), single.bcet()) << label;
      EXPECT_EQ(merged.wcet(), single.wcet()) << label;
      expectSamePredictabilityValue(merged.pr(), single.pr(), label);
      expectSamePredictabilityValue(merged.sipr(), single.sipr(), label);
      expectSamePredictabilityValue(merged.iipr(), single.iipr(), label);
    }
  }
}

TEST(ShardIdentity, CollapsedShardsMergeToUncollapsedSingleProcessBytes) {
  // The duplicate-heavy grid (64 inputs, 16 trace classes) sharded with
  // collapse ON must merge to the exact bytes of a single-process
  // UNCOLLAPSED evaluation: collapse is a scheduling detail, invisible
  // across the process boundary.  Shards group by class within their own
  // input range but attribute through global indices, so even shards that
  // pick different representatives of the same class stay byte-exact.
  const auto w =
      study::WorkloadRegistry::instance().make("linearsearch-16x64-dup");
  exp::PlatformOptions opts;
  opts.numStates = 8;
  const auto model =
      exp::PlatformRegistry::instance().make("ooo-fifo", w.program, opts);

  exp::EngineConfig uncollapsed;
  uncollapsed.collapseTraceClasses = false;
  exp::ExperimentEngine reference(uncollapsed);
  const auto single = reference.reduceCells(*model, w.program, w.inputs);

  ShardSpec whole;
  whole.platform = "ooo-fifo";
  whole.workload = "linearsearch-16x64-dup";
  whole.options = opts;
  whole.qEnd = model->numStates();
  whole.iEnd = w.inputs.size();
  whole.engine.collapseTraceClasses = true;

  for (const std::size_t k : {1u, 3u, 5u, 8u}) {
    const auto plan = exp::planShards(whole, k);
    std::vector<StreamingMeasures> parts;
    for (const auto& s : plan) {
      ASSERT_TRUE(s.engine.collapseTraceClasses);
      parts.push_back(exp::evaluateShard(s, w.program, w.inputs));
    }
    const auto merged =
        exp::ExperimentEngine::mergeShards(std::move(parts));
    const std::string label = "dup-grid k=" + std::to_string(k);
    EXPECT_TRUE(merged.identicalTo(single)) << label;
    EXPECT_EQ(merged.serialize(), single.serialize()) << label;
  }

  // Uneven state bands at 64 states, where the state axis collapses too:
  // each band groups only its own states but keeps global indices, so the
  // bands (crossed with an uneven input split) merge to the bytes of
  // reduceCells, collapsed or not.
  exp::PlatformOptions many;
  many.numStates = 64;
  const std::vector<std::size_t> qCuts = {0, 1, 7, 30, 31, 64};
  const std::vector<std::size_t> iCuts = {0, 13, w.inputs.size()};
  for (const char* platform : {"inorder-lru", "ooo-fifo"}) {
    const auto m =
        exp::PlatformRegistry::instance().make(platform, w.program, many);
    ASSERT_EQ(m->numStates(), 64u);
    exp::ExperimentEngine engine;
    const auto whole = engine.reduceCells(*m, w.program, w.inputs);
    EXPECT_TRUE(
        whole.identicalTo(reference.reduceCells(*m, w.program, w.inputs)))
        << platform;
    const auto before = engine.report();
    std::vector<StreamingMeasures> parts;
    for (std::size_t b = 0; b + 1 < qCuts.size(); ++b) {
      for (std::size_t c = 0; c + 1 < iCuts.size(); ++c) {
        parts.push_back(engine.reduceCellsRange(*m, w.program, w.inputs,
                                                qCuts[b], qCuts[b + 1],
                                                iCuts[c], iCuts[c + 1]));
      }
    }
    const auto bands = engine.report().deltaSince(before);
    EXPECT_LT(bands.counter("engine.cells_replayed"),
              bands.counter("engine.cells"))
        << platform << ": the bands did not collapse states";
    const auto merged = exp::ExperimentEngine::mergeShards(std::move(parts));
    EXPECT_EQ(merged.serialize(), whole.serialize()) << platform;
  }
}

TEST(ShardIdentity, MergeIsOrderIndependent) {
  const auto c = gridCases()[0];
  const auto w = study::WorkloadRegistry::instance().make(c.workload);
  const auto model = exp::PlatformRegistry::instance().make(
      c.platform, w.program, c.options);
  exp::ExperimentEngine engine;
  const auto single = engine.reduceCells(*model, w.program, w.inputs);

  const auto plan = exp::planShards(
      wholeSpecFor(c, model->numStates(), w.inputs.size()), 8);
  std::vector<StreamingMeasures> parts;
  for (const auto& s : plan) {
    parts.push_back(exp::evaluateShard(s, w.program, w.inputs));
  }
  // Reversed and shuffled merge orders both reproduce the reference.
  std::vector<StreamingMeasures> reversed(parts.rbegin(), parts.rend());
  EXPECT_TRUE(exp::ExperimentEngine::mergeShards(std::move(reversed))
                  .identicalTo(single));
  std::mt19937 rng(7);
  std::shuffle(parts.begin(), parts.end(), rng);
  EXPECT_TRUE(exp::ExperimentEngine::mergeShards(std::move(parts))
                  .identicalTo(single));
}

TEST(ShardPlan, CoversTheGridDisjointlySmallestIndexFirst) {
  ShardSpec whole;
  whole.platform = "inorder-lru";
  whole.workload = "bubblesort-8";
  whole.qEnd = 7;
  whole.iEnd = 5;
  for (const std::size_t k : {1u, 2u, 3u, 6u, 7u, 8u, 20u, 35u, 99u}) {
    const auto plan = exp::planShards(whole, k);
    // Requested counts beyond the cell count clamp; counts within it are
    // honored exactly.
    EXPECT_EQ(plan.size(), std::min<std::size_t>(k, 35)) << k;
    std::vector<int> covered(7 * 5, 0);
    for (const auto& s : plan) {
      EXPECT_EQ(s.platform, whole.platform);
      EXPECT_EQ(s.workload, whole.workload);
      // Every planned spec can cross a process boundary bit-for-bit.
      const auto text = exp::serializeShardSpec(s);
      EXPECT_EQ(exp::serializeShardSpec(exp::parseShardSpec(text)), text);
      ASSERT_LT(s.qBegin, s.qEnd) << k;
      ASSERT_LE(s.qEnd, 7u) << k;
      ASSERT_LT(s.iBegin, s.iEnd) << k;
      ASSERT_LE(s.iEnd, 5u) << k;
      for (std::size_t q = s.qBegin; q < s.qEnd; ++q) {
        for (std::size_t i = s.iBegin; i < s.iEnd; ++i) {
          ++covered[q * 5 + i];
        }
      }
    }
    for (const int c : covered) EXPECT_EQ(c, 1) << k;
    // Smallest-index-first emission: ascending (qBegin, iBegin).
    for (std::size_t s = 1; s < plan.size(); ++s) {
      const bool ascending =
          plan[s - 1].qBegin < plan[s].qBegin ||
          (plan[s - 1].qBegin == plan[s].qBegin &&
           plan[s - 1].iBegin < plan[s].iBegin);
      EXPECT_TRUE(ascending) << k;
    }
  }
  ShardSpec empty = whole;
  empty.qEnd = 0;
  EXPECT_THROW(exp::planShards(empty, 4), std::invalid_argument);
}

TEST(ShardPlan, EdgeCountsClampWithoutLosingExactCover) {
  ShardSpec whole;
  whole.platform = "inorder-lru";
  whole.workload = "bubblesort-8";
  whole.qEnd = 7;
  whole.iEnd = 5;

  // count == 0 clamps up to one shard: the whole grid, untouched.
  const auto zero = exp::planShards(whole, 0);
  ASSERT_EQ(zero.size(), 1u);
  EXPECT_EQ(zero[0].qBegin, 0u);
  EXPECT_EQ(zero[0].qEnd, 7u);
  EXPECT_EQ(zero[0].iBegin, 0u);
  EXPECT_EQ(zero[0].iEnd, 5u);

  // count > |Q| switches to per-state input splits — every shard is a
  // single-state band, and a non-divisible count (11 over 7 states, 17
  // over 7) still covers each cell exactly once.
  for (const std::size_t k : {11u, 17u}) {
    const auto plan = exp::planShards(whole, k);
    EXPECT_EQ(plan.size(), k);
    std::vector<int> covered(7 * 5, 0);
    for (const auto& s : plan) {
      EXPECT_EQ(s.qEnd - s.qBegin, 1u) << k;  // one state per shard
      for (std::size_t q = s.qBegin; q < s.qEnd; ++q) {
        for (std::size_t i = s.iBegin; i < s.iEnd; ++i) {
          ++covered[q * 5 + i];
        }
      }
    }
    for (const int c : covered) EXPECT_EQ(c, 1) << k;
  }

  // count == cells: 35 single-cell shards, still an exact disjoint cover.
  const auto cells = exp::planShards(whole, 35);
  EXPECT_EQ(cells.size(), 35u);
  std::vector<int> covered(7 * 5, 0);
  for (const auto& s : cells) {
    EXPECT_EQ((s.qEnd - s.qBegin) * (s.iEnd - s.iBegin), 1u);
    ++covered[s.qBegin * 5 + s.iBegin];
  }
  for (const int c : covered) EXPECT_EQ(c, 1);

  // A sub-rectangle (non-zero begins) splits within its own bounds.
  ShardSpec sub = whole;
  sub.qBegin = 2;
  sub.qEnd = 6;
  sub.iBegin = 1;
  sub.iEnd = 4;
  const auto subPlan = exp::planShards(sub, 3);
  ASSERT_EQ(subPlan.size(), 3u);
  std::vector<int> subCovered(7 * 5, 0);
  for (const auto& s : subPlan) {
    ASSERT_GE(s.qBegin, 2u);
    ASSERT_LE(s.qEnd, 6u);
    ASSERT_GE(s.iBegin, 1u);
    ASSERT_LE(s.iEnd, 4u);
    for (std::size_t q = s.qBegin; q < s.qEnd; ++q) {
      for (std::size_t i = s.iBegin; i < s.iEnd; ++i) {
        ++subCovered[q * 5 + i];
      }
    }
  }
  for (std::size_t q = 0; q < 7; ++q) {
    for (std::size_t i = 0; i < 5; ++i) {
      const bool inside = q >= 2 && q < 6 && i >= 1 && i < 4;
      EXPECT_EQ(subCovered[q * 5 + i], inside ? 1 : 0) << q << "," << i;
    }
  }
}

TEST(ShardSpecWire, RoundTripsEveryField) {
  ShardSpec spec;
  spec.platform = "ooo-preschedule";
  spec.workload = "divkernel-8";
  spec.qBegin = 3;
  spec.qEnd = 9;
  spec.iBegin = 1;
  spec.iEnd = 6;
  spec.engine.threads = 3;
  spec.engine.tileStates = 2;
  spec.engine.tileInputs = 16;
  spec.engine.usePackedReplay = false;
  spec.options.numStates = 9;
  spec.options.seed = 987654321;
  spec.options.warmAddrSpace = 4096;
  spec.options.dataGeom = cache::CacheGeometry{3, 5, 7};
  spec.options.dataTiming = cache::CacheTiming{2, 17};
  spec.options.instrGeom = cache::CacheGeometry{8, 16, 1};
  spec.options.instrTiming = cache::CacheTiming{0, 9};
  spec.options.inorder.mulLatency = 6;
  spec.options.inorder.constantDiv = true;
  spec.options.ooo.dispatchWidth = 4;
  spec.options.ooo.takenRedirect = 2;
  spec.options.pret.numThreads = 6;
  spec.options.smt.policy = pipeline::SmtPolicy::RoundRobin;
  spec.options.smt.memLatency = 5;
  spec.options.scratchpadLatency = 3;

  const auto text = exp::serializeShardSpec(spec);
  const auto back = exp::parseShardSpec(text);
  // Serialization is deterministic, so a second render proves field
  // equality without a ShardSpec operator==.
  EXPECT_EQ(exp::serializeShardSpec(back), text);
  EXPECT_EQ(back.platform, spec.platform);
  EXPECT_EQ(back.workload, spec.workload);
  EXPECT_EQ(back.qBegin, spec.qBegin);
  EXPECT_EQ(back.qEnd, spec.qEnd);
  EXPECT_EQ(back.iBegin, spec.iBegin);
  EXPECT_EQ(back.iEnd, spec.iEnd);
  EXPECT_EQ(back.engine.threads, spec.engine.threads);
  EXPECT_EQ(back.engine.tileStates, spec.engine.tileStates);
  EXPECT_EQ(back.engine.tileInputs, spec.engine.tileInputs);
  EXPECT_EQ(back.engine.usePackedReplay, spec.engine.usePackedReplay);
  EXPECT_EQ(back.options.seed, spec.options.seed);
  EXPECT_EQ(back.options.warmAddrSpace, spec.options.warmAddrSpace);
  EXPECT_EQ(back.options.dataGeom.lineWords, 3);
  EXPECT_EQ(back.options.dataGeom.numSets, 5);
  EXPECT_EQ(back.options.dataGeom.ways, 7);
  EXPECT_EQ(back.options.dataTiming.missLatency, 17u);
  EXPECT_EQ(back.options.inorder.mulLatency, 6u);
  EXPECT_TRUE(back.options.inorder.constantDiv);
  EXPECT_EQ(back.options.ooo.dispatchWidth, 4);
  EXPECT_EQ(back.options.pret.numThreads, 6);
  EXPECT_EQ(back.options.smt.policy, pipeline::SmtPolicy::RoundRobin);
  EXPECT_EQ(back.options.smt.memLatency, 5u);
  EXPECT_EQ(back.options.scratchpadLatency, 3u);
}

TEST(ShardSpecWire, RejectsMalformedInputWithClearErrors) {
  const auto parse = [](const std::string& text) {
    return exp::parseShardSpec(text);
  };
  const char* kMinimal =
      "pred-shard v1\nplatform p\nworkload w\nq 0 4\ni 0 4\nend\n";
  EXPECT_NO_THROW(parse(kMinimal));

  // Structural damage.
  EXPECT_THROW(parse(""), std::invalid_argument);
  EXPECT_THROW(parse("garbage"), std::invalid_argument);
  EXPECT_THROW(parse("pred-shard v2\nend\n"), std::invalid_argument);
  EXPECT_THROW(parse("pred-shard v1\nplatform p\nworkload w\nq 0 4\n"
                     "i 0 4\n"),  // missing end
               std::invalid_argument);
  EXPECT_THROW(parse(std::string(kMinimal) + "trailing"),
               std::invalid_argument);
  EXPECT_THROW(parse("pred-shard v1\nbogus-key 1\nend\n"),
               std::invalid_argument);
  EXPECT_THROW(parse("pred-shard v1\nplatform p\nplatform p\nworkload w\n"
                     "q 0 4\ni 0 4\nend\n"),  // duplicate field
               std::invalid_argument);

  // Missing required fields.
  EXPECT_THROW(parse("pred-shard v1\nworkload w\nq 0 4\ni 0 4\nend\n"),
               std::invalid_argument);
  EXPECT_THROW(parse("pred-shard v1\nplatform p\nq 0 4\ni 0 4\nend\n"),
               std::invalid_argument);
  EXPECT_THROW(parse("pred-shard v1\nplatform p\nworkload w\ni 0 4\nend\n"),
               std::invalid_argument);

  // Bad ranges and malformed numbers.
  EXPECT_THROW(parse("pred-shard v1\nplatform p\nworkload w\nq 4 4\n"
                     "i 0 4\nend\n"),
               std::invalid_argument);
  EXPECT_THROW(parse("pred-shard v1\nplatform p\nworkload w\nq 5 2\n"
                     "i 0 4\nend\n"),
               std::invalid_argument);
  EXPECT_THROW(parse("pred-shard v1\nplatform p\nworkload w\nq 0 4\n"
                     "i 0 -3\nend\n"),
               std::invalid_argument);
  EXPECT_THROW(parse("pred-shard v1\nplatform p\nworkload w\nq 0 x\n"
                     "i 0 4\nend\n"),
               std::invalid_argument);
  EXPECT_THROW(parse("pred-shard v1\nplatform p\nworkload w\nq 0 4\n"
                     "i 0 4\nstates 3.5\nend\n"),
               std::invalid_argument);
  EXPECT_THROW(parse("pred-shard v1\nplatform p\nworkload w\nq 0 4\n"
                     "i 0 4\ndata-geom 0 8 2\nend\n"),
               std::invalid_argument);
  EXPECT_THROW(parse("pred-shard v1\nplatform p\nworkload w\nq 0 4\n"
                     "i 0 4\nsmt 9 1 1 1 1 0\nend\n"),
               std::invalid_argument);
  EXPECT_THROW(parse("pred-shard v1\nplatform p\nworkload w\nq 0 4\n"
                     "i 0 4\nengine 0 4 8 2\nend\n"),
               std::invalid_argument);

  // Unserializable names never leave the process.
  ShardSpec bad;
  bad.platform = "has space";
  bad.workload = "w";
  bad.qEnd = bad.iEnd = 1;
  EXPECT_THROW(exp::serializeShardSpec(bad), std::invalid_argument);
  bad.platform = "";
  EXPECT_THROW(exp::serializeShardSpec(bad), std::invalid_argument);
}

TEST(ShardSpecWire, UnknownPresetNamesFailAtEvaluateWithClearErrors) {
  const auto w = study::WorkloadRegistry::instance().make("bubblesort-8");
  ShardSpec spec;
  spec.platform = "no-such-platform";
  spec.workload = "bubblesort-8";
  spec.qEnd = 2;
  spec.iEnd = 2;
  EXPECT_THROW(exp::evaluateShard(spec, w.program, w.inputs),
               std::invalid_argument);
  // Ranges outside the instantiated grid are rejected, not read OOB.
  spec.platform = "inorder-lru";
  spec.qEnd = 10000;
  EXPECT_THROW(exp::evaluateShard(spec, w.program, w.inputs),
               std::invalid_argument);
  spec.qEnd = 2;
  spec.iEnd = w.inputs.size() + 1;
  EXPECT_THROW(exp::evaluateShard(spec, w.program, w.inputs),
               std::invalid_argument);
}

TEST(MeasuresWire, RoundTripsRandomTiedGrids) {
  std::mt19937_64 rng(20260729);
  for (int round = 0; round < 20; ++round) {
    const std::size_t nQ = 1 + rng() % 9;
    const std::size_t nI = 1 + rng() % 9;
    StreamingMeasures ref(nQ, nI);
    // A tiny value range forces ties, exercising the witness tie-break
    // state the wire format must preserve exactly.
    for (std::size_t q = 0; q < nQ; ++q) {
      for (std::size_t i = 0; i < nI; ++i) {
        ref.add(q, i, 100 + rng() % 3);
      }
    }
    const auto text = ref.serialize();
    const auto back = StreamingMeasures::deserialize(text);
    EXPECT_TRUE(back.identicalTo(ref));
    EXPECT_EQ(back.serialize(), text);
    expectSamePredictabilityValue(back.pr(), ref.pr());
    expectSamePredictabilityValue(back.sipr(), ref.sipr());
    expectSamePredictabilityValue(back.iipr(), ref.iipr());
    EXPECT_EQ(back.cells(), ref.cells());

    // A deserialized PARTIAL accumulator keeps merging correctly: split
    // the same grid in two, ship both halves through text, merge.
    StreamingMeasures lo(nQ, nI), hi(nQ, nI);
    std::mt19937_64 rng2(rng());  // fresh values for the split grid
    StreamingMeasures whole(nQ, nI);
    for (std::size_t q = 0; q < nQ; ++q) {
      for (std::size_t i = 0; i < nI; ++i) {
        const core::Cycles t = 50 + rng2() % 2;
        whole.add(q, i, t);
        (q < nQ / 2 + 1 ? lo : hi).add(q, i, t);
      }
    }
    auto loBack = StreamingMeasures::deserialize(lo.serialize());
    const auto hiBack = StreamingMeasures::deserialize(hi.serialize());
    loBack.merge(hiBack);
    EXPECT_TRUE(loBack.identicalTo(whole));
  }

  // Untouched-entry sentinels round-trip too (an accumulator nothing was
  // fed into, and one with a single cell).
  StreamingMeasures empty(3, 2);
  EXPECT_TRUE(
      StreamingMeasures::deserialize(empty.serialize()).identicalTo(empty));
  StreamingMeasures one(3, 2);
  one.add(2, 1, 42);
  EXPECT_TRUE(
      StreamingMeasures::deserialize(one.serialize()).identicalTo(one));
}

TEST(MeasuresWire, RejectsMalformedInputWithClearErrors) {
  const auto parse = [](const std::string& text) {
    return StreamingMeasures::deserialize(text);
  };
  EXPECT_THROW(parse(""), std::invalid_argument);
  EXPECT_THROW(parse("bogus v1\n"), std::invalid_argument);
  EXPECT_THROW(parse("streaming-measures v2\n"), std::invalid_argument);
  EXPECT_THROW(parse("streaming-measures v1\nshape 2\n"),
               std::invalid_argument);
  EXPECT_THROW(parse("streaming-measures v1\nshape -1 2\ncells 0\nend\n"),
               std::invalid_argument);
  EXPECT_THROW(parse("streaming-measures v1\nshape 99999999999999 2\n"),
               std::invalid_argument);  // implausible shape, no allocation
  // Truncated bodies and label mismatches.
  StreamingMeasures ref(2, 2);
  ref.add(0, 0, 7);
  ref.add(1, 1, 9);
  const auto good = ref.serialize();
  EXPECT_THROW(parse(good.substr(0, good.size() / 2)),
               std::invalid_argument);
  EXPECT_THROW(parse(good + "extra"), std::invalid_argument);
  auto swapped = good;
  const auto pos = swapped.find("\ni ");
  ASSERT_NE(pos, std::string::npos);
  swapped[pos + 1] = 'q';  // axis label mismatch
  EXPECT_THROW(parse(swapped), std::invalid_argument);
  auto bad = good;
  const auto numPos = bad.find("7");
  ASSERT_NE(numPos, std::string::npos);
  bad[numPos] = 'x';
  EXPECT_THROW(parse(bad), std::invalid_argument);
}

TEST(MeasuresWire, MergeShardsValidatesInput) {
  EXPECT_THROW(exp::ExperimentEngine::mergeShards({}),
               std::invalid_argument);
  std::vector<StreamingMeasures> mismatched;
  mismatched.emplace_back(2, 2);
  mismatched.emplace_back(3, 2);
  EXPECT_THROW(exp::ExperimentEngine::mergeShards(std::move(mismatched)),
               std::invalid_argument);
}

TEST(ShardEngine, ReduceCellsRangeValidatesAndKeepsGlobalIndices) {
  const auto w = study::WorkloadRegistry::instance().make("bubblesort-8");
  exp::PlatformOptions options;
  options.numStates = 4;
  const auto model = exp::PlatformRegistry::instance().make(
      "inorder-lru", w.program, options);
  exp::ExperimentEngine engine;
  EXPECT_THROW(engine.reduceCellsRange(*model, w.program, w.inputs, 0, 0, 0,
                                       2),
               std::invalid_argument);
  EXPECT_THROW(engine.reduceCellsRange(*model, w.program, w.inputs, 0, 5, 0,
                                       2),
               std::invalid_argument);
  EXPECT_THROW(engine.reduceCellsRange(*model, w.program, w.inputs, 0, 2, 3,
                                       3),
               std::invalid_argument);
  EXPECT_THROW(engine.reduceCellsRange(*model, w.program, w.inputs, 0, 2, 0,
                                       w.inputs.size() + 1),
               std::invalid_argument);
  // A strict sub-rectangle reports global witnesses: the accumulator has
  // the full shape, and its extremes index the original grid.
  const auto acc = engine.reduceCellsRange(*model, w.program, w.inputs, 2, 4,
                                           3, 7);
  EXPECT_EQ(acc.numStates(), 4u);
  EXPECT_EQ(acc.numInputs(), w.inputs.size());
  EXPECT_EQ(acc.cells(), (4u - 2u) * (7u - 3u));
  const auto pr = acc.pr();
  EXPECT_GE(pr.q1, 2u);
  EXPECT_LT(pr.q1, 4u);
  EXPECT_GE(pr.i1, 3u);
  EXPECT_LT(pr.i1, 7u);
}

}  // namespace
}  // namespace pred
