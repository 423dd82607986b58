// analysis_test.cpp — Exhaustive evaluation of Definition 2 (a Query on
// the inorder-lru preset) and the soundness of the Figure 1 LB/UB bounds.

#include <gtest/gtest.h>

#include "analysis/wcet_bounds.h"
#include "isa/ast.h"
#include "isa/builder.h"
#include "isa/singlepath.h"
#include "isa/workloads.h"
#include "study/query.h"

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

  exp::PlatformOptions opts;
  opts.numStates = 6;
  opts.seed = 777;
  opts.dataGeom = bi.dataCacheGeom;
  opts.dataTiming = bi.cacheTiming;
  opts.inorder = bi.pipeConfig;
  exp::ExperimentEngine engine;
  const auto f = study::Query()
                     .workload(c.name, prog, inputs)
                     .platform("inorder-lru", opts)
                     .run(engine);
  const auto bcet = f.bcet;
  const auto wcet = f.wcet;
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
  exp::PlatformOptions opts;
  opts.numStates = 4;
  opts.seed = 9;
  opts.dataGeom = cache::CacheGeometry{4, 4, 2};
  opts.dataTiming = cache::CacheTiming{};
  exp::ExperimentEngine engine;
  const auto f = study::Query()
                     .workload("sumLoop", prog, inputs)
                     .platform("inorder-lru", opts)
                     .keepMatrix()
                     .run(engine);
  EXPECT_EQ(f.numStates, 4u);
  EXPECT_EQ(f.numInputs, 3u);
  EXPECT_GT(f.bcet, 0u);
  ASSERT_TRUE(f.matrix.has_value());
  EXPECT_EQ(f.matrix->numStates(), 4u);
  EXPECT_EQ(f.matrix->numInputs(), 3u);
  EXPECT_EQ(f.matrix->bcet(), f.bcet);
}

TEST(Exhaustive, CountedLoopHasNoInputVariabilityWithFixedData) {
  // sumLoop touches the same addresses for every input: identical traces,
  // so IIPr = 1 on every state.
  const auto prog = isa::ast::compileBranchy(isa::workloads::sumLoop(6));
  const auto inputs = randomArrayInputs(prog, "a", 6, 4, 3, 8);
  exp::PlatformOptions opts;
  opts.numStates = 3;
  opts.seed = 9;
  opts.dataGeom = cache::CacheGeometry{4, 4, 2};
  opts.dataTiming = cache::CacheTiming{};
  exp::ExperimentEngine engine;
  const auto f = study::Query()
                     .workload("sumLoop", prog, inputs)
                     .platform("inorder-lru", opts)
                     .run(engine);
  EXPECT_DOUBLE_EQ(f.iipr.value, 1.0);
  // But the cache state does matter:
  EXPECT_LT(f.sipr.value, 1.0);
}

TEST(Exhaustive, NonHaltingProgramThrows) {
  isa::ProgramBuilder b;
  b.label("spin").jmp("spin").halt();
  const auto prog = b.build();
  std::vector<isa::Input> inputs{isa::Input{}};
  exp::PlatformOptions opts;
  opts.numStates = 2;
  opts.seed = 9;
  opts.dataGeom = cache::CacheGeometry{4, 4, 2};
  opts.dataTiming = cache::CacheTiming{};
  exp::ExperimentEngine engine;
  const auto query = study::Query()
                         .workload("spin", prog, inputs)
                         .platform("inorder-lru", opts);
  EXPECT_THROW(query.run(engine), std::runtime_error);
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
  exp::PlatformOptions opts;
  opts.numStates = 5;
  opts.seed = 31;
  opts.dataGeom = bi.dataCacheGeom;
  opts.dataTiming = bi.cacheTiming;
  opts.inorder = bi.pipeConfig;
  exp::ExperimentEngine engine;
  const auto f = study::Query()
                     .workload("branchTree", prog, inputs)
                     .platform("inorder-lru", opts)
                     .run(engine);
  EXPECT_GE(ub, f.wcet);
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
  exp::PlatformOptions opts;
  opts.numStates = 2;
  opts.seed = 1;
  opts.dataGeom = bi.dataCacheGeom;
  opts.dataTiming = bi.cacheTiming;
  opts.inorder = bi.pipeConfig;
  exp::ExperimentEngine engine;
  const auto f = study::Query()
                     .workload("linearSearch", prog, {in})
                     .platform("inorder-lru", opts)
                     .run(engine);
  EXPECT_LE(lb, f.bcet);
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
    // 1 state, uniform mem: isolate input effect.
    exp::PlatformOptions opts;
    opts.numStates = 1;
    opts.seed = 3;
    opts.dataGeom = cache::CacheGeometry{4, 8, 2};
    opts.dataTiming = cache::CacheTiming{1, 1};
    opts.inorder.constantDiv = true;
    exp::ExperimentEngine engine;
    const auto f = study::Query()
                       .workload("linearSearch", prog, inputs)
                       .platform("inorder-lru", opts)
                       .run(engine);
    return f.wcet - f.bcet;
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
  exp::PlatformOptions opts;
  opts.numStates = 3;
  opts.seed = 5;
  opts.dataGeom = bi.dataCacheGeom;
  opts.dataTiming = bi.cacheTiming;
  opts.inorder = bi.pipeConfig;
  exp::ExperimentEngine engine;
  const auto f = study::Query()
                     .workload("callRoundRobin", pBig, {isa::Input{}})
                     .platform("inorder-lru", opts)
                     .run(engine);
  EXPECT_GE(ipetUpperBound(cBig, bi), f.wcet);
}

}  // namespace
}  // namespace pred::analysis
