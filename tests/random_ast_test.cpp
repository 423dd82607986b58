// random_ast_test.cpp — Property-based differential testing over randomly
// generated structured programs: for every seed,
//   * both code generators produce valid, terminating programs,
//   * branchy and single-path compilations compute identical results for
//     every input tried,
//   * the single-path trace is input-independent,
//   * the structural bounds are sound (LB <= measured <= UB).

#include <gtest/gtest.h>

#include "analysis/wcet_bounds.h"
#include "isa/ast.h"
#include "isa/exec.h"
#include "isa/singlepath.h"
#include "isa/workloads.h"
#include "study/query.h"

namespace pred {
namespace {

std::int64_t readVar(const isa::Program& p, const isa::MachineState& st,
                     const std::string& name) {
  return st.mem[static_cast<std::size_t>(p.variables.at(name))];
}

isa::Input inputFor(const isa::Program& p, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  isa::Input in;
  for (int k = 0; k < 4; ++k) {
    in = isa::mergeInputs(
        in, isa::varInput(p, "x" + std::to_string(k),
                          static_cast<std::int64_t>(rng() % 32) - 8));
  }
  const auto base = p.variables.at("a");
  for (int k = 0; k < 8; ++k) {
    in.mem[base + k] = static_cast<std::int64_t>(rng() % 64) - 16;
  }
  return in;
}

class RandomAstDifferential : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RandomAstDifferential, BranchyAndSinglePathAgree) {
  const auto seed = GetParam();
  const auto ast = isa::workloads::randomAst(seed);
  const auto branchy = isa::ast::compileBranchy(ast);
  const auto single = isa::ast::compileSinglePath(ast);
  ASSERT_FALSE(branchy.validate().has_value());
  ASSERT_FALSE(single.validate().has_value());

  std::vector<std::int32_t> refPcs;
  for (std::uint64_t inputSeed = 1; inputSeed <= 5; ++inputSeed) {
    const auto ib = inputFor(branchy, seed * 100 + inputSeed);
    const auto is = inputFor(single, seed * 100 + inputSeed);
    const auto rb = isa::FunctionalCore::run(branchy, ib);
    const auto rs = isa::FunctionalCore::run(single, is);
    ASSERT_TRUE(rb.completed) << "branchy did not halt, seed " << seed;
    ASSERT_TRUE(rs.completed) << "single-path did not halt, seed " << seed;

    // Same observable results.
    for (const auto& name : {"r0", "r1", "r2", "r3"}) {
      EXPECT_EQ(readVar(branchy, rb.finalState, name),
                readVar(single, rs.finalState, name))
          << "seed " << seed << " input " << inputSeed << " var " << name;
    }
    const auto baseB = branchy.variables.at("a");
    const auto baseS = single.variables.at("a");
    for (int k = 0; k < 8; ++k) {
      EXPECT_EQ(rb.finalState.mem[static_cast<std::size_t>(baseB + k)],
                rs.finalState.mem[static_cast<std::size_t>(baseS + k)])
          << "seed " << seed << " a[" << k << "]";
    }

    // Single-path pc stream identical across inputs.
    std::vector<std::int32_t> pcs;
    pcs.reserve(rs.trace.size());
    for (const auto& rec : rs.trace) pcs.push_back(rec.pc);
    if (refPcs.empty()) {
      refPcs = std::move(pcs);
    } else {
      EXPECT_EQ(pcs, refPcs) << "single-path trace varies, seed " << seed;
    }
  }
}

TEST_P(RandomAstDifferential, BoundsSound) {
  const auto seed = GetParam();
  const auto prog = isa::ast::compileBranchy(isa::workloads::randomAst(seed));
  isa::Cfg cfg(prog);
  analysis::BoundsInputs bi;
  bi.dataCacheGeom = cache::CacheGeometry{4, 8, 2};
  bi.cacheTiming = cache::CacheTiming{1, 10};
  const auto ub = analysis::ipetUpperBound(cfg, bi);
  const auto lb = analysis::structuralLowerBound(cfg, bi);

  std::vector<isa::Input> inputs;
  for (std::uint64_t s = 1; s <= 4; ++s) {
    inputs.push_back(inputFor(prog, seed * 991 + s));
  }
  exp::PlatformOptions opts;
  opts.numStates = 4;
  opts.seed = seed;
  opts.dataGeom = bi.dataCacheGeom;
  opts.dataTiming = bi.cacheTiming;
  opts.inorder = bi.pipeConfig;
  exp::ExperimentEngine engine;
  const auto f = study::Query()
                     .workload("random", prog, inputs)
                     .platform("inorder-lru", opts)
                     .run(engine);
  EXPECT_LE(lb, f.bcet) << "seed " << seed;
  EXPECT_GE(ub, f.wcet) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomAstDifferential,
                         ::testing::Range<std::uint64_t>(1, 41));

TEST(RandomAst, GeneratorIsDeterministic) {
  const auto a = isa::ast::compileBranchy(isa::workloads::randomAst(7));
  const auto b = isa::ast::compileBranchy(isa::workloads::randomAst(7));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a.code[k].op, b.code[k].op);
    EXPECT_EQ(a.code[k].imm, b.code[k].imm);
  }
}

TEST(RandomAst, SeedsProduceDistinctPrograms) {
  const auto a = isa::ast::compileBranchy(isa::workloads::randomAst(1));
  const auto b = isa::ast::compileBranchy(isa::workloads::randomAst(2));
  bool differ = a.size() != b.size();
  for (std::size_t k = 0; !differ && k < a.size(); ++k) {
    differ = a.code[k].op != b.code[k].op || a.code[k].imm != b.code[k].imm;
  }
  EXPECT_TRUE(differ);
}

}  // namespace
}  // namespace pred
