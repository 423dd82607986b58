// pipeline_test.cpp — In-order, out-of-order (incl. preschedule mode),
// virtual-trace, PRET and SMT timing models.

#include <gtest/gtest.h>

#include "branch/dynamic.h"
#include "core/measures.h"
#include "isa/ast.h"
#include "isa/builder.h"
#include "isa/cfg.h"
#include "isa/exec.h"
#include "isa/workloads.h"
#include "pipeline/inorder.h"
#include "pipeline/memory_iface.h"
#include "pipeline/ooo.h"
#include "pipeline/pret.h"
#include "pipeline/smt.h"
#include "pipeline/vtrace.h"

namespace pred::pipeline {
namespace {

isa::Trace traceOf(const isa::Program& p, const isa::Input& in = {}) {
  auto r = isa::FunctionalCore::run(p, in);
  EXPECT_TRUE(r.completed);
  return r.trace;
}

TEST(InOrder, AdditiveCycleModel) {
  isa::ProgramBuilder b;
  b.li(1, 5).li(2, 3).add(3, 1, 2).mul(4, 1, 2).halt();
  const auto t = traceOf(b.build());
  FixedLatencyMemory mem(2);
  InOrderConfig cfg;
  InOrderPipeline pipe(cfg, &mem);
  // 3 singles + 1 mul(4) + halt(1) = 3 + 4 + 1.
  EXPECT_EQ(pipe.run(t), 3 * cfg.aluLatency + cfg.mulLatency + 1);
}

TEST(InOrder, MemoryLatencyFromCache) {
  isa::ProgramBuilder b;
  b.ld(1, 0, 5).ld(2, 0, 5).halt();
  const auto t = traceOf(b.build());
  cache::SetAssocCache c(cache::CacheGeometry{4, 4, 2}, cache::Policy::LRU,
                         cache::CacheTiming{1, 10});
  CachedMemory mem(c);
  InOrderConfig cfg;
  InOrderPipeline pipe(cfg, &mem);
  // ld miss (1+10) + ld hit (1+1) + halt 1.
  EXPECT_EQ(pipe.run(t), 14u);
}

TEST(InOrder, TakenBranchPenalty) {
  isa::ProgramBuilder b;
  b.li(1, 1);
  b.beq(1, 1, "t");
  b.label("t");
  b.halt();
  const auto t = traceOf(b.build());
  FixedLatencyMemory mem(1);
  InOrderConfig cfg;
  cfg.takenPenalty = 5;
  InOrderPipeline pipe(cfg, &mem);
  EXPECT_EQ(pipe.run(t), 1 + (cfg.controlLatency + 5) + 1);
}

TEST(InOrder, MispredictPenaltyWithPredictor) {
  isa::ProgramBuilder b;
  b.li(1, 1);
  b.beq(1, 1, "t");  // taken
  b.label("t");
  b.halt();
  const auto t = traceOf(b.build());
  FixedLatencyMemory mem(1);
  InOrderConfig cfg;
  cfg.mispredictPenalty = 7;
  branch::BimodalPredictor strongNot(8, 0);  // predicts not-taken: mispredict
  InOrderPipeline pipe(cfg, &mem, &strongNot);
  EXPECT_EQ(pipe.run(t), 1 + (cfg.controlLatency + 7) + 1);
  EXPECT_EQ(pipe.mispredictions(), 1u);
}

TEST(InOrder, ConstantDivRemovesInputVariability) {
  const auto prog = isa::ast::compileBranchy(isa::workloads::divKernel(4));
  isa::Input a = isa::varInput(prog, "x", 0);
  isa::Input b = isa::varInput(prog, "x", 0);
  const auto base = prog.variables.at("a");
  for (int i = 0; i < 4; ++i) {
    a.mem[base + i] = 1;
    b.mem[base + i] = 1'000'000'000;
  }
  FixedLatencyMemory mem(1);
  InOrderConfig varCfg;
  InOrderPipeline varPipe(varCfg, &mem);
  EXPECT_NE(varPipe.run(traceOf(prog, a)), varPipe.run(traceOf(prog, b)));

  InOrderConfig constCfg;
  constCfg.constantDiv = true;
  InOrderPipeline constPipe(constCfg, &mem);
  EXPECT_EQ(constPipe.run(traceOf(prog, a)), constPipe.run(traceOf(prog, b)));
}

TEST(Ooo, DependentChainSerializes) {
  isa::ProgramBuilder b;
  b.mul(1, 1, 2).mul(3, 1, 2).halt();  // RAW on r1
  const auto t = traceOf(b.build());
  FixedLatencyMemory mem(2);
  OooConfig cfg;
  cfg.mulLatency = 4;
  OooPipeline pipe(cfg, &mem);
  const auto serial = pipe.run(t);
  isa::ProgramBuilder b2;
  b2.mul(1, 1, 2).mul(3, 4, 2).halt();  // independent, but same unit (IU0)
  const auto t2 = traceOf(b2.build());
  const auto sameUnit = pipe.run(t2);
  EXPECT_EQ(serial, sameUnit);  // IU0 is the bottleneck either way
  isa::ProgramBuilder b3;
  b3.mul(1, 1, 2).add(3, 4, 5).halt();  // ADD can go to IU1 in parallel
  const auto t3 = traceOf(b3.build());
  EXPECT_LT(pipe.run(t3), serial);
}

TEST(Ooo, DrainModeMakesBlockTimesStateIndependent) {
  // Rochange & Sainrat's preschedule mode [21]: with drain at block
  // boundaries, execution time is the same from any initial occupancy.
  const auto prog = isa::ast::compileBranchy(isa::workloads::sumLoop(8));
  isa::Cfg cfg(prog);
  std::set<std::int32_t> leaders;
  for (const auto& bb : cfg.blocks()) leaders.insert(bb.begin);
  const auto t = traceOf(prog);

  FixedLatencyMemory mem(2);
  OooPipeline pipe(OooConfig{}, &mem);
  std::set<Cycles> drained, free;
  for (Cycles a = 0; a <= 4; ++a) {
    for (Cycles b2 = 0; b2 <= 4; b2 += 2) {
      const OooInitialState q{a, b2, 0};
      drained.insert(pipe.run(t, q, &leaders));
      free.insert(pipe.run(t, q, nullptr));
    }
  }
  EXPECT_EQ(drained.size(), 1u);  // variability eliminated
  EXPECT_GT(free.size(), 1u);  // ...that exists without drain
}

TEST(Ooo, DrainCostsThroughput) {
  const auto prog = isa::ast::compileBranchy(isa::workloads::sumLoop(8));
  isa::Cfg cfg(prog);
  std::set<std::int32_t> leaders;
  for (const auto& bb : cfg.blocks()) leaders.insert(bb.begin);
  const auto t = traceOf(prog);
  FixedLatencyMemory mem(2);
  OooPipeline pipe(OooConfig{}, &mem);
  EXPECT_GE(pipe.run(t, {}, &leaders), pipe.run(t, {}, nullptr));
}

TEST(VTrace, StateIndependentByConstruction) {
  const auto prog = isa::ast::compileBranchy(isa::workloads::bubbleSort(5));
  isa::Cfg cfg(prog);
  VirtualTracePipeline vt(VirtualTraceConfig{},
                          computeTraceBoundaries(cfg, 16));
  const auto inputs =
      isa::workloads::randomArrayInputs(prog, "a", 5, 3, 5, 16);
  for (const auto& in : inputs) {
    const auto t = traceOf(prog, in);
    // No hardware state parameter exists; the time is a pure path function:
    EXPECT_EQ(vt.run(t), vt.run(t));
  }
}

TEST(VTrace, BoundariesAtLoopHeadersAndFunctions) {
  const auto prog =
      isa::ast::compileBranchy(isa::workloads::callRoundRobin(2, 2, 2));
  isa::Cfg cfg(prog);
  const auto bounds = computeTraceBoundaries(cfg, 16);
  EXPECT_TRUE(bounds.count(0));
  for (const auto& f : prog.functions) {
    EXPECT_TRUE(bounds.count(f.entry)) << f.name;
  }
  for (const auto& loop : cfg.loops()) {
    EXPECT_TRUE(bounds.count(cfg.block(loop.header).begin));
  }
}

TEST(VTrace, ConstantDivInsideTraces) {
  const auto prog = isa::ast::compileBranchy(isa::workloads::divKernel(4));
  isa::Cfg cfg(prog);
  VirtualTracePipeline vt(VirtualTraceConfig{},
                          computeTraceBoundaries(cfg, 16));
  isa::Input a = isa::varInput(prog, "x", 0);
  isa::Input b = isa::varInput(prog, "x", 0);
  const auto base = prog.variables.at("a");
  for (int i = 0; i < 4; ++i) {
    a.mem[base + i] = 1;
    b.mem[base + i] = 1'000'000'000;
  }
  // Same path, different DIV operands: virtual traces force constant
  // duration, so times match.
  EXPECT_EQ(vt.run(traceOf(prog, a)), vt.run(traceOf(prog, b)));
}

TEST(Pret, ThreadTimeClosedForm) {
  isa::ProgramBuilder b;
  b.li(1, 1).addi(1, 1, 1).mul(2, 1, 1).halt();
  const auto t = traceOf(b.build());
  PretPipeline pret(PretConfig{4});
  // 4 instructions in slots 0, 4, 8, 12; finish = 13 for slot 0.
  EXPECT_EQ(pret.threadTime(t, 0), 13u);
  EXPECT_EQ(pret.threadTime(t, 1), 14u);
}

TEST(Pret, CompletionIndependentOfCoRunners) {
  const auto p1 = isa::ast::compileBranchy(isa::workloads::sumLoop(6));
  const auto p2 = isa::ast::compileBranchy(isa::workloads::matMul(2));
  const auto t1 = traceOf(p1);
  const auto t2 = traceOf(p2);
  PretPipeline pret(PretConfig{4});
  const auto alone = pret.run({&t1, nullptr, nullptr, nullptr});
  const auto loaded = pret.run({&t1, &t2, &t2, &t2});
  EXPECT_EQ(alone[0], loaded[0]);  // PRET composability
}

TEST(Pret, DeadlineStretchesTiming) {
  isa::ProgramBuilder b;
  b.deadline(40).li(1, 1).halt();
  const auto t = traceOf(b.build());
  PretPipeline pret(PretConfig{4});
  EXPECT_GE(pret.threadTime(t, 0), 40u);

  isa::ProgramBuilder b2;
  b2.deadline(0).li(1, 1).halt();
  EXPECT_LT(pret.threadTime(traceOf(b2.build()), 0), 40u);
}

TEST(Pret, DeadlineGivesRepeatableTiming) {
  // Two variants doing different amounts of work before the deadline
  // complete at the same deadline-aligned cycle: the PRET "control over
  // timing at the program level".
  isa::ProgramBuilder fast;
  fast.li(1, 1).deadline(32).halt();
  isa::ProgramBuilder slow;
  slow.li(1, 1).addi(1, 1, 1).addi(1, 1, 2).addi(1, 1, 3).deadline(32).halt();
  PretPipeline pret(PretConfig{4});
  const auto tf = pret.threadTime(traceOf(fast.build()), 0);
  const auto ts = pret.threadTime(traceOf(slow.build()), 0);
  EXPECT_EQ(tf, ts);
}

TEST(Smt, RtPriorityGivesZeroInterference) {
  const auto rt = isa::ast::compileBranchy(isa::workloads::sumLoop(8));
  const auto bg = isa::ast::compileBranchy(isa::workloads::matMul(3));
  const auto tRt = traceOf(rt);
  const auto tBg = traceOf(bg);
  SmtConfig cfg;
  cfg.policy = SmtPolicy::RtPriority;
  SmtPipeline smt(cfg);
  const auto solo = smt.run({&tRt});
  const auto ctx1 = smt.run({&tRt, &tBg});
  const auto ctx2 = smt.run({&tRt, &tBg, &tBg, &tBg});
  EXPECT_EQ(solo[0], ctx1[0]);
  EXPECT_EQ(solo[0], ctx2[0]);
}

TEST(Smt, RoundRobinInterferes) {
  const auto rt = isa::ast::compileBranchy(isa::workloads::sumLoop(8));
  const auto bg = isa::ast::compileBranchy(isa::workloads::matMul(3));
  const auto tRt = traceOf(rt);
  const auto tBg = traceOf(bg);
  SmtConfig cfg;
  cfg.policy = SmtPolicy::RoundRobin;
  SmtPipeline smt(cfg);
  const auto solo = smt.run({&tRt});
  const auto loaded = smt.run({&tRt, &tBg, &tBg, &tBg});
  EXPECT_GT(loaded[0], solo[0]);  // RT thread slowed by co-runners
}

TEST(Smt, BackgroundThreadsStillProgressUnderPriority) {
  const auto rt = isa::ast::compileBranchy(isa::workloads::sumLoop(4));
  const auto bg = isa::ast::compileBranchy(isa::workloads::sumLoop(4));
  const auto tRt = traceOf(rt);
  const auto tBg = traceOf(bg);
  SmtConfig cfg;
  cfg.policy = SmtPolicy::RtPriority;
  SmtPipeline smt(cfg);
  const auto done = smt.run({&tRt, &tBg});
  EXPECT_GT(done[1], 0u);  // finished eventually
}

TEST(Smt, PolicyNames) {
  EXPECT_EQ(toString(SmtPolicy::RoundRobin), "round-robin");
  EXPECT_EQ(toString(SmtPolicy::RtPriority), "rt-priority");
}

}  // namespace
}  // namespace pred::pipeline
