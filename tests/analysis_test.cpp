// analysis_test.cpp — Exhaustive evaluation of Definition 2 and the
// soundness of the Figure 1 LB/UB bounds.

#include <gtest/gtest.h>

#include "analysis/exhaustive.h"
#include "analysis/wcet_bounds.h"
#include "isa/ast.h"
#include "isa/builder.h"
#include "isa/singlepath.h"
#include "isa/workloads.h"

namespace pred::analysis {
namespace {

using isa::workloads::randomArrayInputs;

struct BoundsCase {
  std::string name;
  isa::ast::AstProgram ast;
  std::string arrayName;
  std::int64_t len;
};

// gtest prints the parameter into each listed test name. Its default byte
// dump would embed the heap address held by `name`, which changes from run
// to run, so print the workload name instead.
void PrintTo(const BoundsCase& c, std::ostream* os) { *os << c.name; }

class Figure1Soundness : public ::testing::TestWithParam<BoundsCase> {};

TEST_P(Figure1Soundness, LbBcetWcetUbOrdered) {
  const auto& c = GetParam();
  const auto prog = isa::ast::compileBranchy(c.ast);
  isa::Cfg cfg(prog);

  std::vector<isa::Input> inputs{isa::Input{}};
  if (!c.arrayName.empty()) {
    auto more = randomArrayInputs(prog, c.arrayName, c.len, 6, 11, 16);
    inputs.insert(inputs.end(), more.begin(), more.end());
  }

  BoundsInputs bi;
  bi.dataCacheGeom = cache::CacheGeometry{4, 8, 2};
  bi.cacheTiming = cache::CacheTiming{1, 10};

  const auto setup = exhaustiveInOrder(prog, inputs, bi.dataCacheGeom,
                                       cache::Policy::LRU, bi.cacheTiming, 6,
                                       777, bi.pipeConfig);
  const auto bcet = setup.matrix.bcet();
  const auto wcet = setup.matrix.wcet();
  const auto d = figure1Decomposition(cfg, bi, bcet, wcet);
  EXPECT_TRUE(d.wellFormed()) << c.name << ": " << d.summary();
  EXPECT_LE(d.lowerBound, bcet);
  EXPECT_GE(d.upperBound, wcet);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, Figure1Soundness,
    ::testing::Values(
        BoundsCase{"sumLoop", isa::workloads::sumLoop(8), "a", 8},
        BoundsCase{"linearSearch", isa::workloads::linearSearch(8), "a", 8},
        BoundsCase{"branchTree", isa::workloads::branchTree(4), "", 0},
        BoundsCase{"bubbleSort", isa::workloads::bubbleSort(5), "a", 5},
        BoundsCase{"heapMix", isa::workloads::heapMix(6), "stat", 6},
        BoundsCase{"divKernel", isa::workloads::divKernel(5), "a", 5}),
    [](const ::testing::TestParamInfo<BoundsCase>& info) {
      return info.param.name;
    });

TEST(Exhaustive, MatrixDimensions) {
  const auto prog = isa::ast::compileBranchy(isa::workloads::sumLoop(4));
  const auto inputs = randomArrayInputs(prog, "a", 4, 3, 5, 8);
  const auto setup =
      exhaustiveInOrder(prog, inputs, cache::CacheGeometry{4, 4, 2},
                        cache::Policy::LRU, cache::CacheTiming{}, 4, 9,
                        pipeline::InOrderConfig{});
  EXPECT_EQ(setup.matrix.numStates(), 4u);
  EXPECT_EQ(setup.matrix.numInputs(), 3u);
  EXPECT_GT(setup.matrix.bcet(), 0u);
}

TEST(Exhaustive, CountedLoopHasNoInputVariabilityWithFixedData) {
  // sumLoop touches the same addresses for every input: identical traces,
  // so IIPr = 1 on every state.
  const auto prog = isa::ast::compileBranchy(isa::workloads::sumLoop(6));
  const auto inputs = randomArrayInputs(prog, "a", 6, 4, 3, 8);
  const auto setup =
      exhaustiveInOrder(prog, inputs, cache::CacheGeometry{4, 4, 2},
                        cache::Policy::LRU, cache::CacheTiming{}, 3, 9,
                        pipeline::InOrderConfig{});
  EXPECT_DOUBLE_EQ(core::inputInducedPredictability(setup.matrix).value, 1.0);
  // But the cache state does matter:
  EXPECT_LT(core::stateInducedPredictability(setup.matrix).value, 1.0);
}

TEST(Exhaustive, NonHaltingProgramThrows) {
  isa::ProgramBuilder b;
  b.label("spin").jmp("spin").halt();
  const auto prog = b.build();
  std::vector<isa::Input> inputs{isa::Input{}};
  EXPECT_THROW(exhaustiveInOrder(prog, inputs, cache::CacheGeometry{4, 4, 2},
                                 cache::Policy::LRU, cache::CacheTiming{}, 2,
                                 9, pipeline::InOrderConfig{}),
               std::runtime_error);
}

TEST(Bounds, UpperBoundCoversWorstCaseBranchSide) {
  // branchTree: the UB must cover whichever classification path is slower,
  // for every input combination (exhaustively checked over 2^4 corners).
  const auto ast = isa::workloads::branchTree(4);
  const auto prog = isa::ast::compileBranchy(ast);
  isa::Cfg cfg(prog);
  BoundsInputs bi;
  bi.dataCacheGeom = cache::CacheGeometry{4, 8, 2};
  const auto ub = ipetUpperBound(cfg, bi);

  std::vector<isa::Input> inputs;
  for (int mask = 0; mask < 16; ++mask) {
    isa::Input in;
    for (int d = 0; d < 4; ++d) {
      in = isa::mergeInputs(
          in, isa::varInput(prog, "x" + std::to_string(d),
                            (mask >> d) & 1 ? 20 : 0));
    }
    inputs.push_back(in);
  }
  const auto setup = exhaustiveInOrder(prog, inputs, bi.dataCacheGeom,
                                       cache::Policy::LRU, bi.cacheTiming, 5,
                                       31, bi.pipeConfig);
  EXPECT_GE(ub, setup.matrix.wcet());
}

TEST(Bounds, LowerBoundPositiveForStraightLineCode) {
  isa::ast::AstProgram a;
  a.scalars = {"x"};
  a.main = isa::ast::assign("x", isa::ast::constant(5));
  const auto prog = isa::ast::compileBranchy(a);
  isa::Cfg cfg(prog);
  BoundsInputs bi;
  EXPECT_GT(structuralLowerBound(cfg, bi), 0u);
}

TEST(Bounds, CountedLoopLowerBoundScalesWithTrips) {
  BoundsInputs bi;
  const auto p4 = isa::ast::compileBranchy(isa::workloads::sumLoop(4));
  const auto p16 = isa::ast::compileBranchy(isa::workloads::sumLoop(16));
  isa::Cfg c4(p4), c16(p16);
  EXPECT_GT(structuralLowerBound(c16, bi), structuralLowerBound(c4, bi));
}

TEST(Bounds, WhileLoopContributesNothingToLowerBound) {
  // linearSearch may exit immediately: its loop body must not inflate LB.
  const auto prog = isa::ast::compileBranchy(isa::workloads::linearSearch(32));
  isa::Cfg cfg(prog);
  BoundsInputs bi;
  const auto lb = structuralLowerBound(cfg, bi);
  // An input where the key is found at index 0:
  isa::Input in = isa::varInput(prog, "key", 0);
  auto setup = exhaustiveInOrder(prog, {in}, bi.dataCacheGeom,
                                 cache::Policy::LRU, bi.cacheTiming, 2, 1,
                                 bi.pipeConfig);
  EXPECT_LE(lb, setup.matrix.bcet());
}

TEST(Bounds, SinglePathTightensInherentVariance) {
  // The single-path compilation of the same AST has min == max loop bounds
  // and no input-dependent paths: its WCET - BCET (inherent variance)
  // collapses compared to the branchy compilation.
  const auto ast = isa::workloads::linearSearch(8);
  const auto branchy = isa::ast::compileBranchy(ast);
  const auto single = isa::ast::compileSinglePath(ast);

  auto variance = [&](const isa::Program& prog) {
    auto inputs = randomArrayInputs(prog, "a", 8, 5, 21, 8);
    for (auto& in : inputs) {
      in = isa::mergeInputs(in, isa::varInput(prog, "key", 3));
    }
    pipeline::InOrderConfig cfg;
    cfg.constantDiv = true;
    auto setup =
        exhaustiveInOrder(prog, inputs, cache::CacheGeometry{4, 8, 2},
                          cache::Policy::LRU, cache::CacheTiming{1, 1}, 1, 3,
                          cfg);  // 1 state, uniform mem: isolate input effect
    return setup.matrix.wcet() - setup.matrix.bcet();
  };
  EXPECT_GT(variance(branchy), 0u);
  EXPECT_EQ(variance(single), 0u);
}

TEST(Bounds, FunctionBodiesScaledByCallCounts) {
  // A function called from inside a counted loop must appear bound times in
  // the UB.
  const auto small = isa::workloads::callRoundRobin(1, 2, 1);
  const auto big = isa::workloads::callRoundRobin(1, 2, 10);
  BoundsInputs bi;
  const auto pSmall = isa::ast::compileBranchy(small);
  const auto pBig = isa::ast::compileBranchy(big);
  isa::Cfg cSmall(pSmall), cBig(pBig);
  EXPECT_GT(ipetUpperBound(cBig, bi), ipetUpperBound(cSmall, bi));
  // And soundness versus measurement:
  auto run = isa::FunctionalCore::run(pBig, isa::Input{});
  ASSERT_TRUE(run.completed);
  auto setup = exhaustiveInOrder(pBig, {isa::Input{}}, bi.dataCacheGeom,
                                 cache::Policy::LRU, bi.cacheTiming, 3, 5,
                                 bi.pipeConfig);
  EXPECT_GE(ipetUpperBound(cBig, bi), setup.matrix.wcet());
}

}  // namespace
}  // namespace pred::analysis
