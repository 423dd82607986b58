// exp_engine_test.cpp — The parallel experiment engine: bit-identical
// parallel/serial matrices, trace memoization, and agreement with the
// legacy exhaustive-analysis path it replaces.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "analysis/exhaustive.h"
#include "exp/engine.h"
#include "exp/platform.h"
#include "exp/replay.h"
#include "exp/trace_store.h"
#include "exp/worker_pool.h"
#include "isa/ast.h"
#include "isa/workloads.h"

namespace pred::exp {
namespace {

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

TEST(ExperimentEngine, ParallelEqualsSerialCellForCell) {
  const auto prog = testProgram();
  const auto inputs = testInputs(prog, 12);
  PlatformOptions opts;
  opts.numStates = 10;
  const auto model =
      PlatformRegistry::instance().make("inorder-lru", prog, opts);

  ExperimentEngine serial(EngineConfig{1, 4, 8});
  ExperimentEngine parallel(EngineConfig{4, 4, 8});
  const auto ms = serial.computeMatrix(*model, prog, inputs);
  const auto mp = parallel.computeMatrix(*model, prog, inputs);

  ASSERT_EQ(ms.numStates(), 10u);
  ASSERT_EQ(ms.numInputs(), 12u);
  EXPECT_TRUE(ms == mp);
  for (std::size_t q = 0; q < ms.numStates(); ++q) {
    for (std::size_t i = 0; i < ms.numInputs(); ++i) {
      EXPECT_EQ(ms.at(q, i), mp.at(q, i)) << "q=" << q << " i=" << i;
    }
  }
}

TEST(ExperimentEngine, DeterministicAcrossThreadCountsAndTileShapes) {
  const auto prog = testProgram();
  const auto inputs = testInputs(prog, 9);
  PlatformOptions opts;
  opts.numStates = 7;
  const auto model =
      PlatformRegistry::instance().make("inorder-fifo", prog, opts);

  ExperimentEngine reference(EngineConfig{1, 1, 1});
  const auto expected = reference.computeMatrix(*model, prog, inputs);
  for (int threads : {1, 2, 3, 8}) {
    for (auto [tq, ti] : {std::pair<std::size_t, std::size_t>{1, 1},
                          {3, 5},
                          {64, 64}}) {
      ExperimentEngine engine(EngineConfig{threads, tq, ti});
      EXPECT_TRUE(expected == engine.computeMatrix(*model, prog, inputs))
          << "threads=" << threads << " tile=" << tq << "x" << ti;
    }
  }
}

TEST(ExperimentEngine, MatchesLegacyExhaustiveAnalysisPath) {
  // Same Q enumeration parameters as analysis::exhaustiveInOrder — the
  // engine must reproduce the seed's ground-truth matrix exactly.
  const auto prog = testProgram();
  const auto inputs = testInputs(prog, 6);
  const cache::CacheGeometry geom{4, 8, 2};
  const cache::CacheTiming timing{1, 10};
  const auto legacy = analysis::exhaustiveInOrder(
      prog, inputs, geom, cache::Policy::LRU, timing, 8, 42,
      pipeline::InOrderConfig{});

  PlatformOptions opts;
  opts.numStates = 8;
  opts.seed = 42;
  opts.dataGeom = geom;
  opts.dataTiming = timing;
  const auto model =
      PlatformRegistry::instance().make("inorder-lru", prog, opts);
  ExperimentEngine engine(EngineConfig{4});
  EXPECT_TRUE(legacy.matrix == engine.computeMatrix(*model, prog, inputs));
}

TEST(TraceStore, MemoizedTracesEqualFreshTraces) {
  const auto prog = testProgram();
  const auto inputs = testInputs(prog, 5);
  TraceStore store;
  for (const auto& in : inputs) {
    const auto& memoized = *store.entryRefFor(prog, in, false).trace;
    const auto fresh = isa::FunctionalCore::run(prog, in).trace;
    ASSERT_EQ(memoized.size(), fresh.size());
    for (std::size_t k = 0; k < fresh.size(); ++k) {
      EXPECT_EQ(memoized[k].pc, fresh[k].pc);
      EXPECT_EQ(memoized[k].nextPc, fresh[k].nextPc);
      EXPECT_EQ(memoized[k].branchTaken, fresh[k].branchTaken);
      EXPECT_EQ(memoized[k].memWordAddr, fresh[k].memWordAddr);
      EXPECT_EQ(memoized[k].extraLatency, fresh[k].extraLatency);
    }
  }
}

TEST(TraceStore, ComputesEachInputOnceAndReturnsStablePointers) {
  const auto prog = testProgram();
  const auto inputs = testInputs(prog, 6);
  TraceStore store;
  const auto traces = [&] {
    std::vector<const isa::Trace*> out;
    for (const auto& in : inputs) {
      out.push_back(store.entryRefFor(prog, in, false).trace);
    }
    return out;
  };
  const auto first = traces();
  EXPECT_EQ(store.misses(), 6u);
  EXPECT_EQ(store.size(), 6u);
  const auto second = traces();
  EXPECT_EQ(store.misses(), 6u);  // no recomputation
  EXPECT_EQ(store.hits(), 6u);
  EXPECT_EQ(first, second);  // identical pointers
}

TEST(TraceStore, KeysByContentNotByObjectAddress) {
  const auto progA = testProgram();
  const auto progB = testProgram();  // distinct object, same code
  EXPECT_EQ(programFingerprint(progA), programFingerprint(progB));
  const auto different =
      isa::ast::compileBranchy(isa::workloads::sumLoop(8));
  EXPECT_NE(programFingerprint(progA), programFingerprint(different));

  TraceStore store;
  store.entryRefFor(progA, isa::Input{}, false);
  store.entryRefFor(progB, isa::Input{}, false);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.hits(), 1u);
}

/// Code-identical raw program parameterized by layout only: loads word 100,
/// whose wrapped address (memWords) and region classification (bases) both
/// depend on the MemoryLayout alone.
isa::Program rawLoadProgram(const isa::MemoryLayout& layout) {
  isa::Program p;
  p.code = {
      isa::Instr{isa::Op::LI, 1, 0, 0, 100},
      isa::Instr{isa::Op::LD, 2, 1, 0, 0},
      isa::Instr{isa::Op::HALT, 0, 0, 0, 0},
  };
  p.layout = layout;
  return p;
}

TEST(TraceStore, CodeIdenticalProgramsWithDifferentBasesStayDistinct) {
  // THE regression for the fingerprint-collision bug: the pre-fix
  // programFingerprint mixed layout.memWords but NOT the three base fields,
  // so these two code-identical programs collided and the store served one
  // layout's memoized entry for the other.  Their traces are equal (bases
  // never change an executed address), but the REGION of the accessed word
  // differs — Static under the default layout, Heap once heapBase drops
  // below it — which is exactly what split-cache timing keys on.
  isa::MemoryLayout defaultLayout;
  isa::MemoryLayout lowHeap;
  lowHeap.heapBase = 64;
  const auto progA = rawLoadProgram(defaultLayout);
  const auto progB = rawLoadProgram(lowHeap);
  ASSERT_EQ(defaultLayout.regionOf(100), isa::DataRegion::Static);
  ASSERT_EQ(lowHeap.regionOf(100), isa::DataRegion::Heap);

  EXPECT_NE(programFingerprint(progA), programFingerprint(progB));
  // Every base field must be identity-bearing, not just heapBase.
  for (auto mutate : {+[](isa::MemoryLayout& l) { l.staticBase = 8; },
                      +[](isa::MemoryLayout& l) { l.stackBase = 512; },
                      +[](isa::MemoryLayout& l) { l.memWords = 64; }}) {
    isa::MemoryLayout changed;
    mutate(changed);
    EXPECT_NE(programFingerprint(rawLoadProgram(changed)),
              programFingerprint(progA));
  }

  TraceStore store;
  store.entryRefFor(progA, isa::Input{}, false);
  store.entryRefFor(progB, isa::Input{}, false);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.misses(), 2u);
  EXPECT_EQ(store.hits(), 0u);
}

TEST(TraceStore, CodeIdenticalProgramsWithDifferentMemWordsDifferInTrace) {
  // memWords changes the WRAPPED effective address, so here even the traces
  // differ — sharing an entry would corrupt every measure downstream.
  isa::MemoryLayout big;     // wrapAddr(100) = 100
  isa::MemoryLayout small;   // wrapAddr(100) = 100 % 64 = 36
  small.memWords = 64;
  const auto progA = rawLoadProgram(big);
  const auto progB = rawLoadProgram(small);

  TraceStore store;
  const auto& traceA = *store.entryRefFor(progA, isa::Input{}, false).trace;
  const auto& traceB = *store.entryRefFor(progB, isa::Input{}, false).trace;
  EXPECT_EQ(store.size(), 2u);
  ASSERT_EQ(traceA.size(), traceB.size());
  EXPECT_EQ(traceA[1].memWordAddr, 100);
  EXPECT_EQ(traceB[1].memWordAddr, 36);
  EXPECT_FALSE(tracesIdentical(traceA, traceB));
  EXPECT_NE(traceFingerprint(traceA), traceFingerprint(traceB));
}

TEST(TraceStore, TraceEquivalentInputsShareAClassId) {
  const auto prog = testProgram();
  const auto inputs = testInputs(prog, 2);
  TraceStore store;

  // Three trace-equal flavors of input 0: the input itself, a renamed exact
  // copy (same store key), and a copy with one never-read scratch word
  // (distinct store key, identical trace).
  const auto ref0 = store.entryRefFor(prog, inputs[0], false);
  isa::Input renamed = inputs[0];
  renamed.name = "renamed";
  const auto refRenamed = store.entryRefFor(prog, renamed, false);
  isa::Input scratch = inputs[0];
  scratch.mem[prog.layout.memWords - 1] = 42;
  const auto refScratch = store.entryRefFor(prog, scratch, false);

  EXPECT_EQ(ref0.classId, refRenamed.classId);
  EXPECT_EQ(ref0.trace, refRenamed.trace);  // same entry entirely
  EXPECT_EQ(ref0.classId, refScratch.classId);
  EXPECT_NE(ref0.trace, refScratch.trace);  // distinct entry, same class
  EXPECT_TRUE(tracesIdentical(*ref0.trace, *refScratch.trace));

  // An input whose trace certainly differs (the key lands in slot 0, so
  // the very first comparison ends the scan) gets its own class; compiled
  // and trace-only lookups agree on ids.
  isa::Input found = inputs[0];
  found.mem[prog.variables.at("a")] = 3;
  found.name = "found-at-0";
  const auto ref1 = store.entryRefFor(prog, found);
  EXPECT_NE(ref1.classId, ref0.classId);
  EXPECT_EQ(store.entryRefFor(prog, found, false).classId, ref1.classId);

  EXPECT_EQ(store.size(), 3u);        // input0, scratch, found
  EXPECT_EQ(store.classCount(), 2u);  // {input0, scratch}, {found}

  // clear() resets the class numbering along with the entries.
  store.clear();
  EXPECT_EQ(store.classCount(), 0u);
  EXPECT_EQ(store.entryRefFor(prog, found, false).classId, 0u);
}

TEST(TraceStore, ThrowsOnNonHaltingProgram) {
  isa::Program infinite;
  infinite.code = {isa::Instr{isa::Op::JMP, 0, 0, 0, 0}};
  TraceStore store;
  EXPECT_THROW(store.entryRefFor(infinite, isa::Input{}, false),
               std::runtime_error);
}

/// Field-for-field equality of two compiled replay forms.
void expectSameReplay(const ReplayProgram& a, const ReplayProgram& b) {
  EXPECT_EQ(a.fetchPc, b.fetchPc);
  EXPECT_EQ(a.dataAddr, b.dataAddr);
  EXPECT_EQ(a.condBranchPc, b.condBranchPc);
  EXPECT_EQ(a.condBranchTaken, b.condBranchTaken);
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (std::size_t k = 0; k < a.ops.size(); ++k) {
    const ReplayOp& x = a.ops[k];
    const ReplayOp& y = b.ops[k];
    EXPECT_TRUE(x.memAddr == y.memAddr && x.pc == y.pc &&
                x.extraLatency == y.extraLatency && x.cls == y.cls &&
                x.flags == y.flags && x.numReads == y.numReads &&
                x.rd == y.rd && x.reads[0] == y.reads[0] &&
                x.reads[1] == y.reads[1] && x.reads[2] == y.reads[2])
        << "op " << k;
  }
  EXPECT_EQ(a.numSingle, b.numSingle);
  EXPECT_EQ(a.numMultiply, b.numMultiply);
  EXPECT_EQ(a.numDivide, b.numDivide);
  EXPECT_EQ(a.sumDivLatency, b.sumDivLatency);
  EXPECT_EQ(a.numControl, b.numControl);
  EXPECT_EQ(a.numTakenControl, b.numTakenControl);
  EXPECT_EQ(a.numTakenCond, b.numTakenCond);
  EXPECT_EQ(a.numNone, b.numNone);
}

TEST(TraceStore, TraceOnlyEntryIsLoweredOnFirstCompiledLookup) {
  // The order a ScenarioSuite takes when an interpreted preset comes before
  // a packed one on a shared store: the entry exists without a compiled
  // form, and the packed lookup lowers it in place.
  const auto prog = testProgram();
  const auto inputs = testInputs(prog, 1);
  TraceStore store;
  const auto plain = store.entryRefFor(prog, inputs[0], false);
  const auto lowered = store.entryRefFor(prog, inputs[0]);
  EXPECT_EQ(plain.trace, lowered.trace);
  EXPECT_EQ(plain.classId, lowered.classId);
  EXPECT_EQ(plain.compiled, nullptr);
  ASSERT_NE(lowered.compiled, nullptr);
  expectSameReplay(*lowered.compiled, compileTrace(*lowered.trace));
  EXPECT_EQ(store.misses(), 1u);
  EXPECT_EQ(store.hits(), 1u);
}

TEST(TraceStore, ConcurrentMixedFillCountsExactly) {
  // Each input is looked up three times in a row with alternating compile
  // flags, so concurrent workers race trace-only and compiled lookups on
  // the same entry.
  const auto prog = testProgram();
  const auto inputs = testInputs(prog, 24);
  TraceStore store;
  WorkerPool::shared().run(inputs.size() * 3, 8, [&](std::size_t k, int) {
    store.entryRefFor(prog, inputs[k / 3], k % 2 == 0);
  });
  EXPECT_EQ(store.size(), 24u);
  EXPECT_EQ(store.misses(), 24u);
  EXPECT_EQ(store.hits() + store.misses(), 72u);
  for (const auto& in : inputs) {
    const auto ref = store.entryRefFor(prog, in);
    ASSERT_NE(ref.compiled, nullptr);
    EXPECT_EQ(store.entryRefFor(prog, in).compiled, ref.compiled);
    EXPECT_EQ(store.entryRefFor(prog, in, false).compiled, ref.compiled);
  }
}

TEST(ExperimentEngine, InterpretedPathNeverLowersTraces) {
  const auto prog = testProgram();
  const auto inputs = testInputs(prog, 6);
  PlatformOptions opts;
  opts.numStates = 4;
  const auto model =
      PlatformRegistry::instance().make("inorder-lru", prog, opts);
  ASSERT_TRUE(model->supportsPackedReplay());
  EngineConfig cfg;
  cfg.usePackedReplay = false;
  ExperimentEngine engine(cfg);
  engine.computeMatrix(*model, prog, inputs);
  engine.reduceCells(*model, prog, inputs);
  for (const auto& in : inputs) {
    EXPECT_EQ(engine.traceStore().entryRefFor(prog, in, false).compiled,
              nullptr);
  }
}

class ThrowingModel : public TimingModel {
 public:
  std::string name() const override { return "throwing"; }
  std::size_t numStates() const override { return 4; }
  Cycles time(std::size_t q, const isa::Trace&) const override {
    if (q == 2) throw std::runtime_error("boom");
    return 1;
  }
};

TEST(ExperimentEngine, WorkerExceptionsPropagateToCaller) {
  const auto prog = testProgram();
  const auto inputs = testInputs(prog, 4);
  ThrowingModel model;
  for (int threads : {1, 4}) {
    ExperimentEngine engine(EngineConfig{threads, 1, 1});
    EXPECT_THROW(engine.computeMatrix(model, prog, inputs),
                 std::runtime_error);
  }
}

TEST(ExperimentEngine, EmptyAxesYieldEmptyMatrix) {
  const auto prog = testProgram();
  PlatformOptions opts;
  opts.numStates = 3;
  const auto model =
      PlatformRegistry::instance().make("inorder-lru", prog, opts);
  ExperimentEngine engine;
  const auto m = engine.computeMatrix(*model, prog, {});
  EXPECT_EQ(m.numStates(), 3u);
  EXPECT_EQ(m.numInputs(), 0u);
  EXPECT_EQ(m.bcet(), 0u);  // defined (zero) rather than UB on empty axes
  EXPECT_EQ(m.wcet(), 0u);
}

}  // namespace
}  // namespace pred::exp
