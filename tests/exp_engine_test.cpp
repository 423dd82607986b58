// exp_engine_test.cpp — The parallel experiment engine: bit-identical
// parallel/serial matrices, trace memoization, and agreement with the
// seed's in-order matrix timed by hand.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "cache/set_assoc.h"
#include "exp/engine.h"
#include "exp/platform.h"
#include "exp/replay.h"
#include "exp/trace_store.h"
#include "exp/worker_pool.h"
#include "isa/ast.h"
#include "isa/workloads.h"
#include "pipeline/inorder.h"
#include "pipeline/memory_iface.h"
#include "witness_expect.h"

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

TEST(ExperimentEngine, InOrderPresetMatchesTheSeedMatrixTimedByHand) {
  // The seed's ground truth, timed with no engine or model code: 8 LRU
  // snapshots warmed over the program's data, each input's functional
  // trace, and one fresh pipeline over a copy of the snapshot per cell.
  // The inorder-lru preset must reproduce it exactly.
  const auto prog = testProgram();
  const auto inputs = testInputs(prog, 6);
  const cache::CacheGeometry geom{4, 8, 2};
  const cache::CacheTiming timing{1, 10};
  const auto states = cache::enumerateInitialStates(
      geom, cache::Policy::LRU, timing, 8, 42,
      std::min(prog.layout.memWords, 8 * geom.capacityWords()));
  core::TimingMatrix byHand(states.size(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto run = isa::FunctionalCore::run(prog, inputs[i]);
    ASSERT_TRUE(run.completed);
    for (std::size_t q = 0; q < states.size(); ++q) {
      pipeline::CachedMemory mem(states[q]);
      pipeline::InOrderPipeline pipe(pipeline::InOrderConfig{}, &mem);
      byHand.at(q, i) = pipe.run(run.trace);
    }
  }

  PlatformOptions opts;
  opts.numStates = 8;
  opts.seed = 42;
  opts.dataGeom = geom;
  opts.dataTiming = timing;
  const auto model =
      PlatformRegistry::instance().make("inorder-lru", prog, opts);
  ExperimentEngine engine(EngineConfig{4});
  EXPECT_TRUE(byHand == engine.computeMatrix(*model, prog, inputs));
}

TEST(TraceStore, MemoizedTracesEqualFreshTraces) {
  const auto prog = testProgram();
  const auto inputs = testInputs(prog, 5);
  TraceStore store;
  for (const auto& in : inputs) {
    const auto& memoized =
        *store.entryRefFor(prog, in, ReplayForm::None).trace;
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

TEST(TraceStore, StoredTracesKeepOnlyTheirRecords) {
  // The functional core reserves records up front; a stored trace must not
  // carry that reservation for the store's lifetime.
  const auto prog = testProgram();
  const auto inputs = testInputs(prog, 5);
  TraceStore store;
  for (const auto& in : inputs) {
    const isa::Trace& stored = *store.entryRefFor(prog, in).trace;
    EXPECT_EQ(stored.capacity(), stored.size());
  }
}

TEST(TraceStore, ComputesEachInputOnceAndReturnsStablePointers) {
  const auto prog = testProgram();
  const auto inputs = testInputs(prog, 6);
  TraceStore store;
  const auto traces = [&] {
    std::vector<const isa::Trace*> out;
    for (const auto& in : inputs) {
      out.push_back(store.entryRefFor(prog, in, ReplayForm::None).trace);
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
  store.entryRefFor(progA, isa::Input{}, ReplayForm::None);
  store.entryRefFor(progB, isa::Input{}, ReplayForm::None);
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
  store.entryRefFor(progA, isa::Input{}, ReplayForm::None);
  store.entryRefFor(progB, isa::Input{}, ReplayForm::None);
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
  const auto& traceA =
      *store.entryRefFor(progA, isa::Input{}, ReplayForm::None).trace;
  const auto& traceB =
      *store.entryRefFor(progB, isa::Input{}, ReplayForm::None).trace;
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
  const auto ref0 = store.entryRefFor(prog, inputs[0], ReplayForm::None);
  isa::Input renamed = inputs[0];
  renamed.name = "renamed";
  const auto refRenamed =
      store.entryRefFor(prog, renamed, ReplayForm::None);
  isa::Input scratch = inputs[0];
  scratch.mem[prog.layout.memWords - 1] = 42;
  const auto refScratch =
      store.entryRefFor(prog, scratch, ReplayForm::None);

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
  EXPECT_EQ(store.entryRefFor(prog, found, ReplayForm::None).classId,
            ref1.classId);

  EXPECT_EQ(store.size(), 3u);        // input0, scratch, found
  EXPECT_EQ(store.classCount(), 2u);  // {input0, scratch}, {found}

  // clear() resets the class numbering along with the entries.
  store.clear();
  EXPECT_EQ(store.classCount(), 0u);
  EXPECT_EQ(store.entryRefFor(prog, found, ReplayForm::None).classId, 0u);
}

TEST(TraceStore, ThrowsOnNonHaltingProgram) {
  isa::Program infinite;
  infinite.code = {isa::Instr{isa::Op::JMP, 0, 0, 0, 0}};
  TraceStore store;
  EXPECT_THROW(store.entryRefFor(infinite, isa::Input{}, ReplayForm::None),
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
  // a packed one on a shared store: the entry exists without a lowered
  // form, and each packed lookup lowers its own form in place — an
  // in-order model's Streams first, then an OOO model's Ops.
  const auto prog = testProgram();
  const auto inputs = testInputs(prog, 1);
  TraceStore store;
  const auto plain = store.entryRefFor(prog, inputs[0], ReplayForm::None);
  const auto lowered = store.entryRefFor(prog, inputs[0]);
  EXPECT_EQ(plain.trace, lowered.trace);
  EXPECT_EQ(plain.classId, lowered.classId);
  EXPECT_EQ(plain.compiled, nullptr);
  EXPECT_EQ(plain.streams, nullptr);
  EXPECT_EQ(plain.ops, nullptr);
  ASSERT_NE(lowered.compiled, nullptr);
  EXPECT_EQ(lowered.compiled, lowered.streams);
  EXPECT_EQ(lowered.ops, nullptr);  // asking for Streams lowers nothing else
  EXPECT_TRUE(lowered.compiled->ops.empty());
  expectSameReplay(*lowered.compiled,
                   compileTrace(*lowered.trace, ReplayForm::Streams));
  EXPECT_EQ(lowered.compiled->length(), lowered.trace->size());
  EXPECT_EQ(store.misses(), 1u);
  EXPECT_EQ(store.hits(), 1u);

  const auto ops = store.entryRefFor(prog, inputs[0], ReplayForm::Ops);
  EXPECT_EQ(ops.trace, lowered.trace);
  EXPECT_EQ(ops.classId, lowered.classId);
  ASSERT_NE(ops.compiled, nullptr);
  EXPECT_EQ(ops.compiled, ops.ops);
  EXPECT_EQ(ops.streams, lowered.compiled);  // the published form stays put
  EXPECT_TRUE(ops.compiled->fetchPc.empty());
  EXPECT_TRUE(ops.compiled->dataAddr.empty());
  expectSameReplay(*ops.compiled,
                   compileTrace(*ops.trace, ReplayForm::Ops));
  EXPECT_EQ(ops.compiled->length(), ops.trace->size());
  // The two slots together are exactly the both-forms lowering.
  ReplayProgram both = *lowered.compiled;
  both.ops = ops.compiled->ops;
  expectSameReplay(both, compileTrace(*ops.trace));
  EXPECT_EQ(store.misses(), 1u);
  EXPECT_EQ(store.hits(), 2u);
}

TEST(TraceStore, ConcurrentMixedFillCountsExactly) {
  // Each input is looked up three times in a row, once per form, so
  // concurrent workers race trace-only, Streams and Ops lookups on the
  // same entry.
  const auto prog = testProgram();
  const auto inputs = testInputs(prog, 24);
  constexpr ReplayForm kForms[] = {ReplayForm::None, ReplayForm::Streams,
                                   ReplayForm::Ops};
  TraceStore store;
  WorkerPool::shared().run(inputs.size() * 3, 8, [&](std::size_t k, int) {
    store.entryRefFor(prog, inputs[k / 3], kForms[k % 3]);
  });
  EXPECT_EQ(store.size(), 24u);
  EXPECT_EQ(store.misses(), 24u);
  EXPECT_EQ(store.hits() + store.misses(), 72u);
  for (const auto& in : inputs) {
    const auto ref = store.entryRefFor(prog, in, ReplayForm::None);
    ASSERT_NE(ref.streams, nullptr);
    ASSERT_NE(ref.ops, nullptr);
    EXPECT_EQ(store.entryRefFor(prog, in).compiled, ref.streams);
    EXPECT_EQ(store.entryRefFor(prog, in, ReplayForm::Ops).compiled,
              ref.ops);
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
    const auto ref =
        engine.traceStore().entryRefFor(prog, in, ReplayForm::None);
    EXPECT_EQ(ref.streams, nullptr);
    EXPECT_EQ(ref.ops, nullptr);
  }
}

TEST(ExperimentEngine, EachModelLowersOnlyTheFormItReplays) {
  // An in-order sweep lowers Streams only; an OOO sweep on the same engine
  // then lowers Ops next to them, leaving the published Streams untouched.
  // Both results match an interpreted matrix under the core:: evaluators.
  const auto prog = testProgram();
  const auto inputs = testInputs(prog, 6);
  PlatformOptions opts;
  opts.numStates = 4;
  EngineConfig interpCfg;
  interpCfg.usePackedReplay = false;
  ExperimentEngine reference(interpCfg);
  ExperimentEngine engine;
  const auto sweep = [&](const std::string& platform) {
    const auto model =
        PlatformRegistry::instance().make(platform, prog, opts);
    ASSERT_TRUE(model->supportsPackedReplay()) << platform;
    const auto acc = engine.reduceCells(*model, prog, inputs);
    const auto m = reference.computeMatrix(*model, prog, inputs);
    expectSamePredictabilityValue(acc.pr(), core::timingPredictability(m),
                                  platform);
    expectSamePredictabilityValue(
        acc.sipr(), core::stateInducedPredictability(m), platform);
    expectSamePredictabilityValue(
        acc.iipr(), core::inputInducedPredictability(m), platform);
  };

  sweep("inorder-lru");
  std::vector<const ReplayProgram*> streams;
  for (const auto& in : inputs) {
    const auto ref =
        engine.traceStore().entryRefFor(prog, in, ReplayForm::None);
    ASSERT_NE(ref.streams, nullptr);
    EXPECT_EQ(ref.ops, nullptr);
    EXPECT_TRUE(ref.streams->ops.empty());
    streams.push_back(ref.streams);
  }

  sweep("ooo-fifo");
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto ref =
        engine.traceStore().entryRefFor(prog, inputs[i], ReplayForm::None);
    EXPECT_EQ(ref.streams, streams[i]);
    ASSERT_NE(ref.ops, nullptr);
    expectSameReplay(*ref.ops, compileTrace(*ref.trace, ReplayForm::Ops));
  }
}

TEST(TraceStore, KeyIsExactOnEveryInputBinding) {
  // Each pair differs in one respect of its bindings only; several are
  // trace-equal, and all must still be distinct keys.  A program that
  // halts at once runs any input.
  isa::Program halt;
  halt.code = {isa::Instr{isa::Op::HALT, 0, 0, 0, 0}};
  const auto input = [](std::map<int, std::int64_t> regs,
                        std::map<std::int64_t, std::int64_t> mem) {
    isa::Input in;
    in.regs = std::move(regs);
    in.mem = std::move(mem);
    return in;
  };
  const std::int64_t low32 = 0xffffffffLL;  // -1's low 32 bits
  struct Pair {
    const char* what;
    isa::Input a, b;
  };
  const std::vector<Pair> pairs = {
      {"one reg value", input({{1, 5}, {2, 6}}, {}),
       input({{1, 5}, {2, 7}}, {})},
      {"one mem value", input({}, {{8, 1}, {9, 2}}),
       input({}, {{8, 1}, {9, 3}})},
      {"r5=7 vs m5=7", input({{5, 7}}, {}), input({}, {{5, 7}})},
      // Without the register count both would read 1, 5, 0.
      {"r1=5 vs m5=0", input({{1, 5}}, {}), input({}, {{5, 0}})},
      {"r1=23 vs r12=3", input({{1, 23}}, {}), input({{12, 3}}, {})},
      {"negative reg value", input({{1, -1}}, {}), input({{1, low32}}, {})},
      {"negative mem value", input({}, {{3, -5}}), input({}, {{3, 5}})},
      {"negative mem address", input({}, {{-1, 4}}),
       input({}, {{low32, 4}})},
      {"empty vs r1=0", input({}, {}), input({{1, 0}}, {})},
      {"empty vs m0=0", input({}, {}), input({}, {{0, 0}})},
  };
  for (const Pair& p : pairs) {
    TraceStore store;
    const auto a = store.entryRefFor(halt, p.a, ReplayForm::None);
    const auto b = store.entryRefFor(halt, p.b, ReplayForm::None);
    EXPECT_NE(a.trace, b.trace) << p.what;
    EXPECT_EQ(store.size(), 2u) << p.what;
    EXPECT_EQ(store.misses(), 2u) << p.what;
    EXPECT_EQ(store.hits(), 0u) << p.what;

    // The name is a label, not a binding: a renamed copy hits.
    isa::Input renamed = p.b;
    renamed.name = "renamed";
    EXPECT_EQ(store.entryRefFor(halt, renamed, ReplayForm::None).trace,
              b.trace)
        << p.what;
    EXPECT_EQ(store.size(), 2u) << p.what;
    EXPECT_EQ(store.hits(), 1u) << p.what;
  }
}

/// Candidate values for a fingerprint field: zero, one, the sign bit and
/// all ones at every width the record uses — so imm = INT32_MIN and
/// memWordAddr -1 <-> 0 are among the changes checked.
const std::vector<std::int64_t> kFieldValues = {
    0,
    1,
    -1,
    0xff,
    0x80,
    std::numeric_limits<std::int32_t>::min(),
    std::numeric_limits<std::int32_t>::max(),
    std::int64_t{1} << 32,
    std::numeric_limits<std::int64_t>::min(),
    std::numeric_limits<std::int64_t>::max(),
};

TEST(TraceStore, TraceFingerprintSeesEveryRecordField) {
  // Two base records: all zeros, and every field at all ones (so a packing
  // that lets two fields share a bit hides a change to either).  Changing
  // one field of the middle record must change the fingerprint.
  isa::ExecRecord zeros;
  zeros.memWordAddr = 0;
  isa::ExecRecord ones;
  ones.pc = -1;
  ones.instr = isa::Instr{static_cast<isa::Op>(0xff), 0xff, 0xff, 0xff, -1};
  ones.branchTaken = true;
  ones.nextPc = -1;
  ones.memWordAddr = -1;
  ones.extraLatency = -1;

  using Set = void (*)(isa::ExecRecord&, std::int64_t);
  const std::vector<std::pair<const char*, Set>> fields = {
      {"pc", [](isa::ExecRecord& r, std::int64_t v) {
         r.pc = static_cast<std::int32_t>(v);
       }},
      {"op", [](isa::ExecRecord& r, std::int64_t v) {
         r.instr.op = static_cast<isa::Op>(static_cast<std::uint8_t>(v));
       }},
      {"rd", [](isa::ExecRecord& r, std::int64_t v) {
         r.instr.rd = static_cast<std::uint8_t>(v);
       }},
      {"rs1", [](isa::ExecRecord& r, std::int64_t v) {
         r.instr.rs1 = static_cast<std::uint8_t>(v);
       }},
      {"rs2", [](isa::ExecRecord& r, std::int64_t v) {
         r.instr.rs2 = static_cast<std::uint8_t>(v);
       }},
      {"imm", [](isa::ExecRecord& r, std::int64_t v) {
         r.instr.imm = static_cast<std::int32_t>(v);
       }},
      {"branchTaken", [](isa::ExecRecord& r, std::int64_t v) {
         r.branchTaken = v != 0;
       }},
      {"nextPc", [](isa::ExecRecord& r, std::int64_t v) {
         r.nextPc = static_cast<std::int32_t>(v);
       }},
      {"memWordAddr", [](isa::ExecRecord& r, std::int64_t v) {
         r.memWordAddr = v;
       }},
      {"extraLatency", [](isa::ExecRecord& r, std::int64_t v) {
         r.extraLatency = static_cast<std::int32_t>(v);
       }},
  };
  int checked = 0;
  for (const isa::ExecRecord& base : {zeros, ones}) {
    const isa::Trace trace(3, base);
    const std::uint64_t fp = traceFingerprint(trace);
    for (const auto& [name, set] : fields) {
      for (const std::int64_t v : kFieldValues) {
        isa::Trace changed = trace;
        set(changed[1], v);
        if (tracesIdentical(changed, trace)) continue;  // v truncated to base
        EXPECT_NE(traceFingerprint(changed), fp)
            << name << " = " << v << " on the "
            << (base.pc == 0 ? "zeros" : "ones") << " record";
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 100);
}

TEST(TraceStore, ProgramFingerprintSeesEveryInstructionField) {
  const isa::Instr zeros{isa::Op::ADD, 0, 0, 0, 0};
  const isa::Instr ones{static_cast<isa::Op>(0xff), 0xff, 0xff, 0xff, -1};
  using Set = void (*)(isa::Instr&, std::int64_t);
  const std::vector<std::pair<const char*, Set>> fields = {
      {"op", [](isa::Instr& i, std::int64_t v) {
         i.op = static_cast<isa::Op>(static_cast<std::uint8_t>(v));
       }},
      {"rd", [](isa::Instr& i, std::int64_t v) {
         i.rd = static_cast<std::uint8_t>(v);
       }},
      {"rs1", [](isa::Instr& i, std::int64_t v) {
         i.rs1 = static_cast<std::uint8_t>(v);
       }},
      {"rs2", [](isa::Instr& i, std::int64_t v) {
         i.rs2 = static_cast<std::uint8_t>(v);
       }},
      {"imm", [](isa::Instr& i, std::int64_t v) {
         i.imm = static_cast<std::int32_t>(v);
       }},
  };
  const auto same = [](const isa::Instr& a, const isa::Instr& b) {
    return a.op == b.op && a.rd == b.rd && a.rs1 == b.rs1 &&
           a.rs2 == b.rs2 && a.imm == b.imm;
  };
  int checked = 0;
  for (const isa::Instr& base : {zeros, ones}) {
    isa::Program prog;
    prog.code.assign(3, base);
    const std::uint64_t fp = programFingerprint(prog);
    for (const auto& [name, set] : fields) {
      for (const std::int64_t v : kFieldValues) {
        isa::Program changed = prog;
        set(changed.code[1], v);
        if (same(changed.code[1], base)) continue;  // v truncated to base
        EXPECT_NE(programFingerprint(changed), fp)
            << name << " = " << v << " on the "
            << (base.rd == 0 ? "zeros" : "ones") << " instruction";
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 50);
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

/// A one-state model whose every cell takes `cycles`: the value tells
/// which factory made it.
class ConstModel final : public TimingModel {
 public:
  explicit ConstModel(Cycles cycles) : cycles_(cycles) {}
  std::string name() const override { return "const"; }
  std::size_t numStates() const override { return 1; }
  Cycles time(std::size_t, const isa::Trace&) const override {
    return cycles_;
  }
  Cycles cycles() const { return cycles_; }

 private:
  Cycles cycles_;
};

/// A platform whose factory counts its calls in `makes`.
Platform countingPlatform(std::string name, Cycles cycles,
                          std::atomic<int>* makes) {
  return Platform{std::move(name), "counts its makes",
                  [cycles, makes](const isa::Program&,
                                  const PlatformOptions&) {
                    ++*makes;
                    return std::make_unique<ConstModel>(cycles);
                  }};
}

Cycles cyclesOf(const std::shared_ptr<const TimingModel>& model) {
  return dynamic_cast<const ConstModel&>(*model).cycles();
}

TEST(ExperimentEngine, ModelCacheKeyIsExact) {
  std::atomic<int> makes{0};
  PlatformRegistry registry;
  registry.add(countingPlatform("custom", 7, &makes));
  registry.add(countingPlatform("custom-2", 7, &makes));
  const auto prog = testProgram();
  ExperimentEngine engine(EngineConfig{1});

  // Equal options hit and share the one model; so do the platform name and
  // the program (layout included) — changing either misses.
  const auto first = engine.model(registry, "custom", prog, {});
  EXPECT_EQ(engine.model(registry, "custom", prog, PlatformOptions{}),
            first);
  EXPECT_EQ(makes, 1);
  EXPECT_NE(engine.model(registry, "custom-2", prog, {}), first);
  isa::Program relaid = prog;
  relaid.layout.heapBase = 64;
  EXPECT_NE(engine.model(registry, "custom", relaid, {}), first);
  EXPECT_EQ(makes, 3);
  EXPECT_EQ(engine.report().counter("engine.model_cache.misses"), 3u);
  EXPECT_EQ(engine.report().counter("engine.model_cache.hits"), 1u);

  // Two registries binding one name to different factories never share a
  // model on one engine: the registry's id is part of the key.
  std::atomic<int> otherMakes{0};
  PlatformRegistry other;
  other.add(countingPlatform("custom", 9, &otherMakes));
  EXPECT_EQ(cyclesOf(engine.model(registry, "custom", prog, {})), 7u);
  EXPECT_EQ(cyclesOf(engine.model(other, "custom", prog, {})), 9u);
  EXPECT_EQ(otherMakes, 1);
  EXPECT_EQ(cyclesOf(engine.model(registry, "custom", prog, {})), 7u);
  EXPECT_EQ(cyclesOf(engine.model(other, "custom", prog, {})), 9u);
  EXPECT_EQ(otherMakes, 1);
  EXPECT_EQ(makes, 3);

  // Every PlatformOptions field is part of the key: changing any one
  // misses (and makes), and looking the changed options up again hits.
  using Mutation = std::function<void(PlatformOptions&)>;
  const std::vector<std::pair<std::string, Mutation>> fields = {
      {"numStates", [](PlatformOptions& o) { ++o.numStates; }},
      {"seed", [](PlatformOptions& o) { ++o.seed; }},
      {"warmAddrSpace", [](PlatformOptions& o) { o.warmAddrSpace = 64; }},
      {"dataGeom.lineWords",
       [](PlatformOptions& o) { ++o.dataGeom.lineWords; }},
      {"dataGeom.numSets", [](PlatformOptions& o) { ++o.dataGeom.numSets; }},
      {"dataGeom.ways", [](PlatformOptions& o) { ++o.dataGeom.ways; }},
      {"dataTiming.hitLatency",
       [](PlatformOptions& o) { ++o.dataTiming.hitLatency; }},
      {"dataTiming.missLatency",
       [](PlatformOptions& o) { ++o.dataTiming.missLatency; }},
      {"instrGeom.lineWords",
       [](PlatformOptions& o) { ++o.instrGeom.lineWords; }},
      {"instrGeom.numSets", [](PlatformOptions& o) { ++o.instrGeom.numSets; }},
      {"instrGeom.ways", [](PlatformOptions& o) { ++o.instrGeom.ways; }},
      {"instrTiming.hitLatency",
       [](PlatformOptions& o) { ++o.instrTiming.hitLatency; }},
      {"instrTiming.missLatency",
       [](PlatformOptions& o) { ++o.instrTiming.missLatency; }},
      {"inorder.aluLatency",
       [](PlatformOptions& o) { ++o.inorder.aluLatency; }},
      {"inorder.mulLatency",
       [](PlatformOptions& o) { ++o.inorder.mulLatency; }},
      {"inorder.constantDiv",
       [](PlatformOptions& o) { o.inorder.constantDiv ^= true; }},
      {"inorder.controlLatency",
       [](PlatformOptions& o) { ++o.inorder.controlLatency; }},
      {"inorder.takenPenalty",
       [](PlatformOptions& o) { ++o.inorder.takenPenalty; }},
      {"inorder.mispredictPenalty",
       [](PlatformOptions& o) { ++o.inorder.mispredictPenalty; }},
      {"ooo.aluLatency", [](PlatformOptions& o) { ++o.ooo.aluLatency; }},
      {"ooo.mulLatency", [](PlatformOptions& o) { ++o.ooo.mulLatency; }},
      {"ooo.constantDiv",
       [](PlatformOptions& o) { o.ooo.constantDiv ^= true; }},
      {"ooo.controlLatency",
       [](PlatformOptions& o) { ++o.ooo.controlLatency; }},
      {"ooo.takenRedirect", [](PlatformOptions& o) { ++o.ooo.takenRedirect; }},
      {"ooo.dispatchWidth", [](PlatformOptions& o) { ++o.ooo.dispatchWidth; }},
      {"pret.numThreads", [](PlatformOptions& o) { ++o.pret.numThreads; }},
      {"smt.policy",
       [](PlatformOptions& o) {
         o.smt.policy = o.smt.policy == pipeline::SmtPolicy::RoundRobin
                            ? pipeline::SmtPolicy::RtPriority
                            : pipeline::SmtPolicy::RoundRobin;
       }},
      {"smt.aluLatency", [](PlatformOptions& o) { ++o.smt.aluLatency; }},
      {"smt.mulLatency", [](PlatformOptions& o) { ++o.smt.mulLatency; }},
      {"smt.memLatency", [](PlatformOptions& o) { ++o.smt.memLatency; }},
      {"smt.controlLatency",
       [](PlatformOptions& o) { ++o.smt.controlLatency; }},
      {"smt.constantDiv",
       [](PlatformOptions& o) { o.smt.constantDiv ^= true; }},
      {"scratchpadLatency", [](PlatformOptions& o) { ++o.scratchpadLatency; }},
  };
  for (const auto& [field, mutate] : fields) {
    PlatformOptions changed;
    mutate(changed);
    // A fresh engine per field, holding only the default-options model, so
    // a key that drops `field` is bound to find it.
    ExperimentEngine one(EngineConfig{1});
    const auto base = one.model(registry, "custom", prog, {});
    const int before = makes;
    const auto made = one.model(registry, "custom", prog, changed);
    EXPECT_EQ(makes, before + 1) << field << " is not part of the key";
    EXPECT_NE(made, base) << field;
    EXPECT_EQ(one.model(registry, "custom", prog, changed), made) << field;
    EXPECT_EQ(makes, before + 1) << field;
    EXPECT_EQ(one.report().counter("engine.model_cache.misses"), 2u) << field;
    EXPECT_EQ(one.report().counter("engine.model_cache.hits"), 1u) << field;
  }
}

TEST(ExperimentEngine, ModelCacheEvictsTheLeastRecentlyUsed) {
  std::atomic<int> makes{0};
  PlatformRegistry registry;
  registry.add(countingPlatform("custom", 7, &makes));
  const auto prog = testProgram();
  ExperimentEngine engine(EngineConfig{1});
  const auto withSeed = [&](std::uint64_t seed) {
    PlatformOptions o;
    o.seed = seed;
    return engine.model(registry, "custom", prog, o);
  };
  ASSERT_EQ(ExperimentEngine::kModelCacheCapacity, 16u);
  for (std::uint64_t seed = 1; seed <= 16; ++seed) withSeed(seed);
  EXPECT_EQ(makes, 16);
  withSeed(1);  // a hit, and now the most recently used
  EXPECT_EQ(makes, 16);

  // The 17th distinct model evicts the least recently used one (seed 2),
  // but a caller still holding it keeps it alive.
  auto held = withSeed(2);
  for (std::uint64_t seed = 3; seed <= 16; ++seed) withSeed(seed);
  withSeed(1);
  EXPECT_EQ(makes, 16);
  const std::weak_ptr<const TimingModel> watch = held;
  withSeed(17);
  EXPECT_EQ(makes, 17);
  EXPECT_FALSE(watch.expired());
  EXPECT_EQ(held->numStates(), 1u);
  held.reset();
  EXPECT_TRUE(watch.expired());
  withSeed(1);
  EXPECT_EQ(makes, 17);
  withSeed(2);
  EXPECT_EQ(makes, 18);
  EXPECT_EQ(engine.report().counter("engine.model_cache.misses"), 18u);
  EXPECT_EQ(engine.report().counter("engine.model_cache.hits"), 18u);
}

TEST(ExperimentEngine, ConcurrentModelLookupsMakeEachModelOnce) {
  std::atomic<int> makes{0};
  PlatformRegistry registry;
  registry.add(countingPlatform("custom", 7, &makes));
  const auto prog = testProgram();
  ExperimentEngine engine(EngineConfig{1});
  constexpr int kThreads = 4;
  constexpr int kLookups = 200;
  constexpr int kKeys = 4;
  std::vector<std::vector<const TimingModel*>> seen(
      kThreads, std::vector<const TimingModel*>(kKeys, nullptr));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int j = 0; j < kLookups; ++j) {
        PlatformOptions o;
        o.seed = static_cast<std::uint64_t>((j + t) % kKeys);
        const auto m = engine.model(registry, "custom", prog, o);
        auto& slot = seen[t][static_cast<std::size_t>(o.seed)];
        if (slot == nullptr) slot = m.get();
        EXPECT_EQ(slot, m.get());
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(makes, kKeys);
  const obs::RunReport r = engine.report();
  EXPECT_EQ(r.counter("engine.model_cache.misses"),
            static_cast<std::uint64_t>(kKeys));
  EXPECT_EQ(r.counter("engine.model_cache.hits"),
            static_cast<std::uint64_t>(kThreads * kLookups - kKeys));
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
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

TEST(ExperimentEngine, StateCollapseCountsReplaysAndMovesNoResult) {
  // 64 states of the 8 x 2 LRU cache repeat, so the streaming walk groups
  // each trace class's states: engine.cells keeps counting (state, class)
  // cells, engine.cells_replayed counts model evaluations, and every group
  // walked is replayed once.  The matrix sink, collapse off and the
  // interpreted path replay every cell.  No tile shape or thread count
  // moves a byte.
  const auto prog = testProgram();
  const auto inputs = testInputs(prog, 12);
  PlatformOptions opts;
  opts.numStates = 64;
  const auto model =
      PlatformRegistry::instance().make("inorder-lru", prog, opts);
  const auto counts = [&](EngineConfig cfg, bool matrix) {
    ExperimentEngine engine(cfg);
    const auto acc = engine.reduceCells(*model, prog, inputs);
    if (matrix) {
      const auto before = engine.report();
      engine.computeMatrix(*model, prog, inputs);
      const auto d = engine.report().deltaSince(before);
      return std::make_pair(acc, std::array<std::uint64_t, 3>{
                                     d.counter("engine.cells"),
                                     d.counter("engine.state_groups"),
                                     d.counter("engine.cells_replayed")});
    }
    const auto r = engine.report();
    return std::make_pair(acc, std::array<std::uint64_t, 3>{
                                   r.counter("engine.cells"),
                                   r.counter("engine.state_groups"),
                                   r.counter("engine.cells_replayed")});
  };
  EngineConfig off;
  off.collapseTraceClasses = false;
  const auto [reference, offCounts] = counts(off, false);
  const std::uint64_t cells = 64u * inputs.size();
  EXPECT_EQ(offCounts[0], cells);
  EXPECT_EQ(offCounts[2], cells);

  const auto [collapsed, onCounts] = counts(EngineConfig{}, false);
  EXPECT_TRUE(collapsed.identicalTo(reference));
  EXPECT_LT(onCounts[0], cells);  // trace classes fold some inputs
  EXPECT_EQ(onCounts[1], onCounts[2]);
  EXPECT_LT(4 * onCounts[2], onCounts[0]);

  const auto [viaMatrix, matrixCounts] = counts(EngineConfig{}, true);
  EXPECT_EQ(matrixCounts[0], cells);
  EXPECT_EQ(matrixCounts[2], cells);

  EngineConfig interpreted;
  interpreted.usePackedReplay = false;
  const auto [interp, interpCounts] = counts(interpreted, false);
  EXPECT_TRUE(interp.identicalTo(reference));
  EXPECT_EQ(interpCounts[2], interpCounts[0]);

  for (const auto& [threads, tileStates, tileInputs] :
       std::vector<std::tuple<int, std::size_t, std::size_t>>{
           {1, 1, 1}, {3, 5, 2}, {4, 64, 64}, {2, 7, 3}}) {
    EngineConfig cfg{threads, tileStates, tileInputs};
    const auto [acc, c] = counts(cfg, false);
    EXPECT_TRUE(acc.identicalTo(reference))
        << threads << " " << tileStates << "x" << tileInputs;
    EXPECT_EQ(c, onCounts);
  }
}

}  // namespace
}  // namespace pred::exp
