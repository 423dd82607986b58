// replay_test.cpp — The replay-kernel layer: packed cache snapshots are
// lossless and behaviorally identical to SetAssocCache for every policy,
// compiled-trace replay is bit-identical to the interpreted pipeline walk
// across all PlatformRegistry presets, streaming measures reproduce the
// matrix evaluators witness-for-witness, and exhaustive queries with
// keepMatrices=false never materialize a |Q|x|I| matrix.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <stdexcept>
#include <vector>

#include "cache/locking.h"
#include "cache/packed.h"
#include "cache/set_assoc.h"
#include "core/definitions.h"
#include "core/measures.h"
#include "exp/engine.h"
#include "exp/platform.h"
#include "exp/replay.h"
#include "exp/trace_store.h"
#include "exp/worker_pool.h"
#include "isa/ast.h"
#include "isa/workloads.h"
#include "study/query.h"
#include "witness_expect.h"

namespace pred {
namespace {

const std::vector<cache::Policy> kAllPolicies = {
    cache::Policy::LRU, cache::Policy::FIFO, cache::Policy::PLRU,
    cache::Policy::MRU, cache::Policy::RANDOM};

std::vector<std::int64_t> randomAddrs(std::size_t n, std::int64_t space,
                                      std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::int64_t> d(0, space - 1);
  std::vector<std::int64_t> out(n);
  for (auto& a : out) a = d(rng);
  return out;
}

isa::Program testProgram() {
  return isa::ast::compileBranchy(isa::workloads::linearSearch(8));
}

std::vector<isa::Input> testInputs(const isa::Program& prog, int howMany) {
  auto inputs = isa::workloads::randomArrayInputs(prog, "a", 8, howMany, 11);
  for (auto& in : inputs) {
    in = isa::mergeInputs(in, isa::varInput(prog, "key", 3));
  }
  return inputs;
}

// ---------------------------------------------------------------- packing

TEST(PackedCache, PackUnpackRoundTripsAllPolicies) {
  const cache::CacheGeometry geom{4, 8, 4};
  const cache::CacheTiming timing{1, 10};
  for (const auto policy : kAllPolicies) {
    cache::SetAssocCache c(geom, policy, timing, 99);
    c.warmUp(randomAddrs(300, 4 * geom.capacityWords(), 7));
    auto back = cache::SetAssocCache::unpack(c.pack());
    EXPECT_EQ(c.stateSignature(), back.stateSignature())
        << toString(policy);
    // The round trip must preserve FUTURE behavior too (policy metadata and
    // the RANDOM rng state, not just contents).
    for (const auto a : randomAddrs(200, 4 * geom.capacityWords(), 8)) {
      const auto r1 = c.access(a);
      const auto r2 = back.access(a);
      EXPECT_EQ(r1.hit, r2.hit) << toString(policy);
      EXPECT_EQ(r1.latency, r2.latency) << toString(policy);
    }
    EXPECT_EQ(c.stateSignature(), back.stateSignature()) << toString(policy);
  }
}

TEST(PackedCache, SimMatchesLegacyAccessForAccessAllPolicies) {
  const cache::CacheGeometry geom{4, 8, 4};
  const cache::CacheTiming timing{2, 17};
  for (const auto policy : kAllPolicies) {
    cache::SetAssocCache legacy(geom, policy, timing, 12345);
    legacy.warmUp(randomAddrs(150, 4 * geom.capacityWords(), 3));
    cache::PackedCacheSim sim;
    sim.load(legacy.pack());
    legacy.clearCounters();
    for (const auto a : randomAddrs(500, 4 * geom.capacityWords(), 4)) {
      const auto rl = legacy.access(a);
      const auto rp = sim.access(a);
      ASSERT_EQ(rl.hit, rp.hit) << toString(policy);
      ASSERT_EQ(rl.latency, rp.latency) << toString(policy);
    }
    EXPECT_EQ(legacy.hits(), sim.hits()) << toString(policy);
    EXPECT_EQ(legacy.misses(), sim.misses()) << toString(policy);
  }
}

TEST(PackedCache, SimMatchesLegacyOnNonPowerOfTwoGeometry) {
  // lineWords=3, numSets=5 forces the division (non-shift) address path.
  const cache::CacheGeometry geom{3, 5, 2};
  const cache::CacheTiming timing{1, 9};
  for (const auto policy :
       {cache::Policy::LRU, cache::Policy::FIFO, cache::Policy::MRU,
        cache::Policy::RANDOM}) {
    cache::SetAssocCache legacy(geom, policy, timing, 5);
    cache::PackedCacheSim sim;
    sim.load(legacy.pack());
    for (const auto a : randomAddrs(400, 3 * geom.capacityWords(), 21)) {
      const auto rl = legacy.access(a);
      const auto rp = sim.access(a);
      ASSERT_EQ(rl.hit, rp.hit) << toString(policy);
      ASSERT_EQ(rl.latency, rp.latency) << toString(policy);
    }
  }
}

TEST(PackedCache, ReloadResetsStateAndCounters) {
  const cache::CacheGeometry geom{4, 4, 2};
  cache::SetAssocCache proto(geom, cache::Policy::LRU, {1, 10});
  const auto cold = proto.pack();
  cache::PackedCacheSim sim;
  sim.load(cold);
  EXPECT_FALSE(sim.access(0).hit);
  EXPECT_TRUE(sim.access(0).hit);
  EXPECT_EQ(sim.hits(), 1u);
  sim.load(cold);  // the packed analogue of reset()
  EXPECT_EQ(sim.hits(), 0u);
  EXPECT_EQ(sim.misses(), 0u);
  EXPECT_FALSE(sim.access(0).hit);
}

TEST(PackedCache, PreemptionReplayMatchesLegacyResetForRandomPolicy) {
  // reset() trashes contents but never reseeds the xorshift stream; the
  // packed preemption replay (locking.cpp) must behave the same, which
  // resetContents() — unlike load() — guarantees.
  const cache::CacheGeometry geom{4, 4, 2};
  const cache::CacheTiming timing{1, 10};
  isa::Trace trace;
  for (const auto a : randomAddrs(600, 3 * geom.capacityWords(), 31)) {
    isa::ExecRecord rec;
    rec.pc = static_cast<std::int32_t>(a);
    trace.push_back(rec);
  }
  for (const auto policy : kAllPolicies) {
    for (const std::uint64_t period : {0ull, 7ull, 64ull}) {
      // The nested reference loop with the same trace-total accounting as
      // locking.cpp: every window's hits are banked before the reset.
      cache::SetAssocCache ic(geom, policy, timing);
      std::uint64_t total = 0;
      std::uint64_t n = 0;
      for (const auto& rec : trace) {
        if (period && ++n % period == 0) {
          total += ic.hits();
          ic.reset();
        }
        ic.access(rec.pc);
      }
      EXPECT_EQ(cache::unlockedHitsUnderPreemption(trace, geom, policy,
                                                   timing, period),
                total + ic.hits())
          << toString(policy) << " period=" << period;
    }
  }
}

TEST(PackedCache, WideAssociativityIsRejected) {
  const cache::CacheGeometry wide{4, 2, 32};
  EXPECT_FALSE(cache::packable(wide));
  cache::SetAssocCache c(wide, cache::Policy::LRU, {1, 10});
  EXPECT_THROW(c.pack(), std::invalid_argument);
}

// ---------------------------------------------------------- compiled traces

TEST(ReplayProgram, LowersTraceStreamsFaithfully) {
  const auto prog = testProgram();
  const auto inputs = testInputs(prog, 3);
  for (const auto& in : inputs) {
    const auto trace = isa::FunctionalCore::run(prog, in).trace;
    const auto rp = exp::compileTrace(trace);
    ASSERT_EQ(rp.length(), trace.size());
    const auto stats = isa::computeStats(trace);
    EXPECT_EQ(rp.dataAddr.size(), stats.memAccesses);
    EXPECT_EQ(rp.condBranchPc.size(), stats.condBranches);
    EXPECT_EQ(rp.numTakenCond, stats.takenBranches);
    std::size_t mem = 0;
    for (std::size_t k = 0; k < trace.size(); ++k) {
      EXPECT_EQ(rp.fetchPc[k], trace[k].pc);
      if (isa::latencyClass(trace[k].instr.op) == isa::LatencyClass::Memory) {
        EXPECT_EQ(rp.dataAddr[mem++], trace[k].memWordAddr);
      }
    }
  }
}

/// Every packed-capable preset: the engine's packed path must reproduce the
/// interpreted path cell-for-cell (this is the acceptance criterion of the
/// replay-kernel layer).
TEST(PackedReplay, BitIdenticalAcrossAllRegistryPresets) {
  const auto prog = testProgram();
  const auto inputs = testInputs(prog, 6);
  exp::PlatformOptions opts;
  opts.numStates = 5;
  for (const auto& name : exp::PlatformRegistry::instance().names()) {
    const auto model =
        exp::PlatformRegistry::instance().make(name, prog, opts);
    exp::EngineConfig interpCfg{2, 2, 3};
    interpCfg.usePackedReplay = false;
    exp::EngineConfig packedCfg{2, 2, 3};
    exp::ExperimentEngine interp(interpCfg);
    exp::ExperimentEngine packed(packedCfg);
    const auto mi = interp.computeMatrix(*model, prog, inputs);
    const auto mp = packed.computeMatrix(*model, prog, inputs);
    EXPECT_TRUE(mi == mp) << name;
  }
}

/// The cached in-order presets cover LRU/FIFO/PLRU/RANDOM; MRU has no
/// preset, so build the snapshot model directly to close the policy matrix.
TEST(PackedReplay, BitIdenticalForMruSnapshotModel) {
  const auto prog = testProgram();
  const auto inputs = testInputs(prog, 5);
  const cache::CacheGeometry geom{4, 8, 4};
  const cache::CacheTiming timing{1, 10};
  auto caches = cache::enumerateInitialStates(geom, cache::Policy::MRU,
                                              timing, 6, 77, 256);
  std::vector<exp::InOrderSnapshotModel::State> states;
  for (auto& c : caches) {
    states.push_back(exp::InOrderSnapshotModel::State{
        std::move(c), std::nullopt, nullptr,
        "mru#" + std::to_string(states.size())});
  }
  const exp::InOrderSnapshotModel model("inorder-mru", {},
                                        std::move(states));
  ASSERT_TRUE(model.supportsPackedReplay());
  exp::ExperimentEngine engine;
  exp::TraceStore store;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto ref = store.entryRefFor(prog, inputs[i]);
    const auto& trace = *ref.trace;
    const auto& rp = *ref.compiled;
    for (std::size_t q = 0; q < model.numStates(); ++q) {
      EXPECT_EQ(model.time(q, trace), model.timePacked(q, rp))
          << "q=" << q << " i=" << i;
    }
  }
}

TEST(PackedReplay, ModelFallsBackWhenUnpackable) {
  const auto prog = testProgram();
  const auto inputs = testInputs(prog, 4);
  exp::PlatformOptions opts;
  opts.numStates = 3;
  opts.dataGeom = cache::CacheGeometry{4, 2, 17};  // ways > kMaxPackedWays
  const auto model =
      exp::PlatformRegistry::instance().make("inorder-lru", prog, opts);
  EXPECT_FALSE(model->supportsPackedReplay());
  exp::ExperimentEngine engine;
  const auto m = engine.computeMatrix(*model, prog, inputs);  // legacy path
  EXPECT_EQ(m.numStates(), 3u);
  exp::EngineConfig serial{1};
  serial.usePackedReplay = false;
  exp::ExperimentEngine reference(serial);
  EXPECT_TRUE(m == reference.computeMatrix(*model, prog, inputs));
}

// ------------------------------------------------------ streaming measures

void expectSameValue(const core::PredictabilityValue& a,
                     const core::PredictabilityValue& b) {
  expectSamePredictabilityValue(a, b);
}

TEST(StreamingMeasures, MatchesMatrixEvaluatorsOnRandomGrids) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    std::mt19937_64 rng(seed);
    const std::size_t nQ = 1 + rng() % 9;
    const std::size_t nI = 1 + rng() % 11;
    core::TimingMatrix m(nQ, nI);
    // A narrow value range forces plenty of ties, exercising the witness
    // tie-break rules.
    std::uniform_int_distribution<core::Cycles> d(1, 6);
    std::vector<std::pair<std::size_t, std::size_t>> cells;
    for (std::size_t q = 0; q < nQ; ++q) {
      for (std::size_t i = 0; i < nI; ++i) {
        m.at(q, i) = d(rng);
        cells.emplace_back(q, i);
      }
    }
    // Feed cells in shuffled order, split across two accumulators merged in
    // both directions — the fold must be order-independent.
    std::shuffle(cells.begin(), cells.end(), rng);
    core::StreamingMeasures a(nQ, nI), b(nQ, nI);
    for (std::size_t k = 0; k < cells.size(); ++k) {
      auto& acc = (k % 2 == 0) ? a : b;
      acc.add(cells[k].first, cells[k].second,
              m.at(cells[k].first, cells[k].second));
    }
    core::StreamingMeasures ab(nQ, nI);
    ab.merge(b);
    ab.merge(a);
    a.merge(b);

    for (const auto* acc : {&a, &ab}) {
      EXPECT_EQ(acc->cells(), nQ * nI);
      EXPECT_EQ(acc->bcet(), m.bcet()) << "seed " << seed;
      EXPECT_EQ(acc->wcet(), m.wcet()) << "seed " << seed;
      expectSameValue(acc->pr(), core::timingPredictability(m));
      expectSameValue(acc->sipr(), core::stateInducedPredictability(m));
      expectSameValue(acc->iipr(), core::inputInducedPredictability(m));
    }
  }
}

TEST(StreamingMeasures, MergeRejectsShapeMismatch) {
  core::StreamingMeasures a(2, 3), b(3, 2);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(ReduceCells, MatchesMatrixPathForAnyThreadsTilesAndReplayMode) {
  const auto prog = testProgram();
  const auto inputs = testInputs(prog, 9);
  exp::PlatformOptions opts;
  opts.numStates = 7;
  const auto model =
      exp::PlatformRegistry::instance().make("inorder-fifo", prog, opts);

  exp::EngineConfig refCfg{1, 1, 1};
  exp::ExperimentEngine reference(refCfg);
  const auto matrix = reference.computeMatrix(*model, prog, inputs);

  for (const bool packed : {true, false}) {
    for (int threads : {1, 3, 8}) {
      exp::EngineConfig cfg{threads, 3, 5};
      cfg.usePackedReplay = packed;
      exp::ExperimentEngine engine(cfg);
      const auto acc = engine.reduceCells(*model, prog, inputs);
      EXPECT_EQ(acc.bcet(), matrix.bcet());
      EXPECT_EQ(acc.wcet(), matrix.wcet());
      expectSameValue(acc.pr(), core::timingPredictability(matrix));
      expectSameValue(acc.sipr(), core::stateInducedPredictability(matrix));
      expectSameValue(acc.iipr(), core::inputInducedPredictability(matrix));
      // Streaming never materialized a matrix.
      EXPECT_EQ(engine.matrixBuilds(), 0u);
    }
  }
}

TEST(Query, ExhaustiveWithoutKeepMatrixNeverBuildsTheMatrix) {
  study::Query query;
  query.workload("linearsearch-12").platform("inorder-lru");
  study::Query kept = query;
  kept.keepMatrix(true);

  exp::ExperimentEngine streaming;
  const auto fs = query.run(streaming);
  EXPECT_EQ(streaming.matrixBuilds(), 0u);  // the streaming-path guarantee
  EXPECT_FALSE(fs.matrix.has_value());

  exp::ExperimentEngine materializing;
  const auto fm = kept.run(materializing);
  EXPECT_EQ(materializing.matrixBuilds(), 1u);
  ASSERT_TRUE(fm.matrix.has_value());

  // Same arithmetic on both paths, witnesses included.
  EXPECT_EQ(fs.bcet, fm.bcet);
  EXPECT_EQ(fs.wcet, fm.wcet);
  expectSameValue(fs.pr, fm.pr);
  expectSameValue(fs.sipr, fm.sipr);
  expectSameValue(fs.iipr, fm.iipr);
}

// ------------------------------------------------- worker pool / trace store

TEST(WorkerPool, RunsEveryItemOnceWithDenseWorkerIds) {
  exp::WorkerPool& pool = exp::WorkerPool::shared();
  for (int round = 0; round < 3; ++round) {  // the pool is reusable
    constexpr std::size_t kItems = 257;
    std::vector<std::atomic<int>> counts(kItems);
    std::atomic<bool> badWorker{false};
    pool.run(kItems, 4, [&](std::size_t k, int worker) {
      counts[k].fetch_add(1);
      if (worker < 0 || worker >= 4) badWorker = true;
    });
    for (std::size_t k = 0; k < kItems; ++k) {
      EXPECT_EQ(counts[k].load(), 1) << "item " << k;
    }
    EXPECT_FALSE(badWorker.load());
  }
}

TEST(WorkerPool, PropagatesTheFirstException) {
  exp::WorkerPool& pool = exp::WorkerPool::shared();
  for (int maxWorkers : {1, 4}) {
    EXPECT_THROW(
        pool.run(64, maxWorkers,
                 [&](std::size_t k, int) {
                   if (k == 7) throw std::runtime_error("boom");
                 }),
        std::runtime_error);
  }
  // Still usable afterwards.
  std::atomic<std::size_t> n{0};
  pool.run(16, 4, [&](std::size_t, int) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 16u);
}

TEST(TraceStore, CachesCompiledFormNextToTrace) {
  const auto prog = testProgram();
  const auto inputs = testInputs(prog, 4);
  exp::TraceStore store;
  const auto& rp1 = *store.entryRefFor(prog, inputs[0]).compiled;
  const auto& rp2 = *store.entryRefFor(prog, inputs[0]).compiled;
  EXPECT_EQ(&rp1, &rp2);  // lowered once, stable pointer
  const auto ref = store.entryRefFor(prog, inputs[0]);
  EXPECT_EQ(ref.compiled, &rp1);
  EXPECT_EQ(ref.trace,
            store.entryRefFor(prog, inputs[0], exp::ReplayForm::None).trace);

  // The compiled form is the lowering of the memoized trace.
  const auto fresh = exp::compileTrace(*ref.trace);
  EXPECT_EQ(fresh.fetchPc, rp1.fetchPc);
  EXPECT_EQ(fresh.dataAddr, rp1.dataAddr);
  EXPECT_EQ(fresh.condBranchPc, rp1.condBranchPc);
  EXPECT_EQ(fresh.condBranchTaken, rp1.condBranchTaken);
  EXPECT_EQ(fresh.sumDivLatency, rp1.sumDivLatency);
}

TEST(TraceStore, ShardedFillFromManyThreadsCountsExactly) {
  const auto prog = testProgram();
  const auto inputs = testInputs(prog, 24);
  exp::TraceStore store;
  exp::WorkerPool::shared().run(inputs.size() * 3, 8, [&](std::size_t k, int) {
    store.entryRefFor(prog, inputs[k % inputs.size()]);
  });
  EXPECT_EQ(store.size(), inputs.size());
  EXPECT_EQ(store.misses(), inputs.size());
  EXPECT_EQ(store.hits() + store.misses(), inputs.size() * 3);
}

}  // namespace
}  // namespace pred
