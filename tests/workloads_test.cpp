// workloads_test.cpp — Functional correctness of the additional workload
// kernels and their use as predictability subjects.

#include <gtest/gtest.h>

#include "analysis/wcet_bounds.h"
#include "isa/ast.h"
#include "isa/exec.h"
#include "isa/singlepath.h"
#include "isa/workloads.h"
#include "study/query.h"

namespace pred::isa {
namespace {

std::int64_t readVar(const Program& p, const MachineState& st,
                     const std::string& name) {
  return st.mem[static_cast<std::size_t>(p.variables.at(name))];
}

TEST(Fibonacci, ComputesSequence) {
  // fib with f starting at 1: after n iterations f = fib(n+1) in the
  // 1,1,2,3,5,... convention.
  const std::int64_t expect[] = {1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89};
  for (int n = 0; n <= 10; ++n) {
    const auto p = ast::compileBranchy(workloads::fibonacci(n));
    auto r = FunctionalCore::run(p, Input{});
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(readVar(p, r.finalState, "f"), expect[n]) << "n=" << n;
  }
}

TEST(Fibonacci, FullyInputIndependent) {
  // No inputs at all: Pr over any state set equals SIPr; IIPr = 1.
  const auto p = ast::compileBranchy(workloads::fibonacci(12));
  exp::PlatformOptions opts;
  opts.numStates = 6;
  opts.seed = 3;
  opts.dataGeom = cache::CacheGeometry{4, 8, 2};
  opts.dataTiming = cache::CacheTiming{1, 10};
  exp::ExperimentEngine engine;
  const auto f = study::Query()
                     .workload("fibonacci", p, {Input{}, Input{}})
                     .platform("inorder-lru", opts)
                     .run(engine);
  EXPECT_DOUBLE_EQ(f.iipr.value, 1.0);
}

TEST(MatrixTranspose, TransposesCorrectly) {
  const auto p = ast::compileBranchy(workloads::matrixTranspose(4));
  Input in;
  const auto base = p.variables.at("m");
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) in.mem[base + i * 4 + j] = i * 10 + j;
  }
  auto r = FunctionalCore::run(p, in);
  ASSERT_TRUE(r.completed);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_EQ(r.finalState.mem[static_cast<std::size_t>(base + i * 4 + j)],
                j * 10 + i);
    }
  }
}

TEST(MatrixTranspose, InvolutionProperty) {
  // transpose(transpose(m)) == m: run the program twice.
  const auto p = ast::compileBranchy(workloads::matrixTranspose(3));
  Input in;
  const auto base = p.variables.at("m");
  for (int k = 0; k < 9; ++k) in.mem[base + k] = k * 7 + 1;
  auto r1 = FunctionalCore::run(p, in);
  Input in2;
  for (int k = 0; k < 9; ++k) {
    in2.mem[base + k] =
        r1.finalState.mem[static_cast<std::size_t>(base + k)];
  }
  auto r2 = FunctionalCore::run(p, in2);
  for (int k = 0; k < 9; ++k) {
    EXPECT_EQ(r2.finalState.mem[static_cast<std::size_t>(base + k)],
              k * 7 + 1);
  }
}

TEST(CrcLike, DeterministicAndInputSensitive) {
  const auto p = ast::compileBranchy(workloads::crcLike(4));
  const auto base = p.variables.at("a");
  Input a, b;
  for (int k = 0; k < 4; ++k) {
    a.mem[base + k] = k + 1;
    b.mem[base + k] = k + 2;
  }
  auto ra1 = FunctionalCore::run(p, a);
  auto ra2 = FunctionalCore::run(p, a);
  auto rb = FunctionalCore::run(p, b);
  EXPECT_EQ(readVar(p, ra1.finalState, "crc"),
            readVar(p, ra2.finalState, "crc"));
  EXPECT_NE(readVar(p, ra1.finalState, "crc"),
            readVar(p, rb.finalState, "crc"));
}

TEST(CrcLike, SinglePathEquivalent) {
  const auto ast = workloads::crcLike(3);
  const auto pb = ast::compileBranchy(ast);
  const auto ps = ast::compileSinglePath(ast);
  const auto inputsB = workloads::randomArrayInputs(pb, "a", 3, 4, 77, 256);
  const auto inputsS = workloads::randomArrayInputs(ps, "a", 3, 4, 77, 256);
  for (std::size_t k = 0; k < inputsB.size(); ++k) {
    auto rb = FunctionalCore::run(pb, inputsB[k]);
    auto rs = FunctionalCore::run(ps, inputsS[k]);
    EXPECT_EQ(readVar(pb, rb.finalState, "crc"),
              readVar(ps, rs.finalState, "crc"));
  }
}

TEST(CrcLike, BranchyTimeVariesSinglePathDoesNot) {
  const auto ast = workloads::crcLike(3);
  for (const bool singlePath : {false, true}) {
    const auto p = singlePath ? ast::compileSinglePath(ast)
                              : ast::compileBranchy(ast);
    const auto inputs = workloads::randomArrayInputs(p, "a", 3, 6, 5, 256);
    exp::PlatformOptions opts;
    opts.numStates = 1;
    opts.seed = 3;
    opts.dataGeom = cache::CacheGeometry{4, 8, 2};
    opts.dataTiming = cache::CacheTiming{2, 2};
    opts.inorder.constantDiv = true;
    exp::ExperimentEngine engine;
    const double iipr = study::Query()
                            .workload("crcLike", p, inputs)
                            .platform("inorder-lru", opts)
                            .run(engine)
                            .iipr.value;
    if (singlePath) {
      EXPECT_DOUBLE_EQ(iipr, 1.0);
    } else {
      EXPECT_LT(iipr, 1.0);
    }
  }
}

TEST(NewWorkloads, BoundsSound) {
  const ast::AstProgram progs[] = {
      workloads::fibonacci(8),
      workloads::matrixTranspose(3),
      workloads::crcLike(3),
  };
  for (const auto& a : progs) {
    const auto p = ast::compileBranchy(a);
    Cfg cfg(p);
    analysis::BoundsInputs bi;
    bi.dataCacheGeom = cache::CacheGeometry{4, 8, 2};
    bi.cacheTiming = cache::CacheTiming{1, 10};
    std::vector<Input> inputs{Input{}};
    if (p.variables.count("a")) {
      auto more = workloads::randomArrayInputs(p, "a", 3, 4, 11, 256);
      inputs.insert(inputs.end(), more.begin(), more.end());
    }
    if (p.variables.count("m")) {
      auto more = workloads::randomArrayInputs(p, "m", 9, 4, 11, 64);
      inputs.insert(inputs.end(), more.begin(), more.end());
    }
    exp::PlatformOptions opts;
    opts.numStates = 4;
    opts.seed = 9;
    opts.dataGeom = bi.dataCacheGeom;
    opts.dataTiming = bi.cacheTiming;
    opts.inorder = bi.pipeConfig;
    exp::ExperimentEngine engine;
    const auto f = study::Query()
                       .workload("new-workload", p, inputs)
                       .platform("inorder-lru", opts)
                       .run(engine);
    EXPECT_LE(analysis::structuralLowerBound(cfg, bi), f.bcet);
    EXPECT_GE(analysis::ipetUpperBound(cfg, bi), f.wcet);
  }
}

}  // namespace
}  // namespace pred::isa
