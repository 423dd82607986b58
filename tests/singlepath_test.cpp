// singlepath_test.cpp — The single-path code generator (Puschner & Burns
// [19]): differential functional equivalence against the branchy compiler,
// and the defining property — the dynamic instruction trace (hence, on
// constant-latency hardware, the execution time) is input-independent.

#include <gtest/gtest.h>

#include "isa/ast.h"
#include "isa/exec.h"
#include "isa/singlepath.h"
#include "isa/workloads.h"

namespace pred::isa::ast {
namespace {

std::int64_t readVar(const Program& p, const MachineState& st,
                     const std::string& name) {
  return st.mem[static_cast<std::size_t>(p.variables.at(name))];
}

/// Maps a named input onto both compilations (addresses may differ).
Input forProgram(const Program& p, const std::string& var, std::int64_t v) {
  return varInput(p, var, v);
}

std::vector<std::int32_t> pcSequence(const Trace& t) {
  std::vector<std::int32_t> pcs;
  pcs.reserve(t.size());
  for (const auto& rec : t) pcs.push_back(rec.pc);
  return pcs;
}

TEST(SinglePath, IfElseEquivalence) {
  AstProgram a;
  a.scalars = {"x", "r"};
  a.main = ifElse(lt(var("x"), constant(10)), assign("r", constant(1)),
                  assign("r", constant(2)));
  const auto pb = compileBranchy(a);
  const auto ps = compileSinglePath(a);
  for (std::int64_t x : {-5, 0, 5, 9, 10, 11, 100}) {
    auto rb = FunctionalCore::run(pb, forProgram(pb, "x", x));
    auto rs = FunctionalCore::run(ps, forProgram(ps, "x", x));
    ASSERT_TRUE(rb.completed && rs.completed);
    EXPECT_EQ(readVar(pb, rb.finalState, "r"), readVar(ps, rs.finalState, "r"))
        << "x=" << x;
  }
}

TEST(SinglePath, IfElseTraceIsInputIndependent) {
  AstProgram a;
  a.scalars = {"x", "r"};
  a.main = ifElse(lt(var("x"), constant(10)), assign("r", constant(1)),
                  assign("r", constant(2)));
  const auto ps = compileSinglePath(a);
  auto ref = FunctionalCore::run(ps, forProgram(ps, "x", 0));
  for (std::int64_t x : {-100, 3, 9, 10, 55}) {
    auto r = FunctionalCore::run(ps, forProgram(ps, "x", x));
    EXPECT_EQ(pcSequence(ref.trace), pcSequence(r.trace)) << "x=" << x;
  }
}

TEST(SinglePath, NestedIfEquivalence) {
  AstProgram a = workloads::branchTree(4);
  const auto pb = compileBranchy(a);
  const auto ps = compileSinglePath(a);
  for (std::int64_t x0 : {0, 10}) {
    for (std::int64_t x1 : {0, 10}) {
      for (std::int64_t x2 : {0, 10}) {
        for (std::int64_t x3 : {0, 10}) {
          Input ib = mergeInputs(
              mergeInputs(forProgram(pb, "x0", x0), forProgram(pb, "x1", x1)),
              mergeInputs(forProgram(pb, "x2", x2), forProgram(pb, "x3", x3)));
          Input is = mergeInputs(
              mergeInputs(forProgram(ps, "x0", x0), forProgram(ps, "x1", x1)),
              mergeInputs(forProgram(ps, "x2", x2), forProgram(ps, "x3", x3)));
          auto rb = FunctionalCore::run(pb, ib);
          auto rs = FunctionalCore::run(ps, is);
          EXPECT_EQ(readVar(pb, rb.finalState, "cls"),
                    readVar(ps, rs.finalState, "cls"));
        }
      }
    }
  }
}

TEST(SinglePath, WhileLoopEquivalenceAndConstantTrace) {
  AstProgram a;
  a.scalars = {"i", "n"};
  a.main = seq({
      assign("i", constant(0)),
      whileLoop(lt(var("i"), var("n")),
                assign("i", add(var("i"), constant(1))), 12),
  });
  const auto pb = compileBranchy(a);
  const auto ps = compileSinglePath(a);
  std::size_t refLen = 0;
  for (std::int64_t n : {0, 1, 5, 12}) {
    auto rb = FunctionalCore::run(pb, forProgram(pb, "n", n));
    auto rs = FunctionalCore::run(ps, forProgram(ps, "n", n));
    EXPECT_EQ(readVar(pb, rb.finalState, "i"), readVar(ps, rs.finalState, "i"))
        << "n=" << n;
    if (refLen == 0) {
      refLen = rs.trace.size();
    } else {
      EXPECT_EQ(rs.trace.size(), refLen) << "n=" << n;  // constant trip count
    }
  }
}

TEST(SinglePath, ArrayAssignUnderFalsePredicateIsNoOp) {
  AstProgram a;
  a.scalars = {"x"};
  a.arrays["v"] = 4;
  a.main = ifElse(eq(var("x"), constant(1)),
                  arrayAssign("v", constant(2), constant(99)));
  const auto ps = compileSinglePath(a);
  auto r = FunctionalCore::run(ps, forProgram(ps, "x", 0));
  const auto base = static_cast<std::size_t>(ps.variables.at("v"));
  EXPECT_EQ(r.finalState.mem[base + 2], 0);  // not written
  auto r1 = FunctionalCore::run(ps, forProgram(ps, "x", 1));
  EXPECT_EQ(r1.finalState.mem[base + 2], 99);
  // Same trace length either way (the store always executes).
  EXPECT_EQ(r.trace.size(), r1.trace.size());
}

TEST(SinglePath, FunctionsReceiveCallerPredicate) {
  AstProgram a;
  a.scalars = {"x", "acc"};
  a.functions.push_back(
      FunctionDecl{"bump", assign("acc", add(var("acc"), constant(1)))});
  a.main = ifElse(eq(var("x"), constant(1)), callFn("bump"));
  const auto ps = compileSinglePath(a);
  auto r0 = FunctionalCore::run(ps, forProgram(ps, "x", 0));
  auto r1 = FunctionalCore::run(ps, forProgram(ps, "x", 1));
  EXPECT_EQ(readVar(ps, r0.finalState, "acc"), 0);  // predicate false
  EXPECT_EQ(readVar(ps, r1.finalState, "acc"), 1);
  // The call itself always executes: identical pc sequences.
  EXPECT_EQ(pcSequence(r0.trace), pcSequence(r1.trace));
}

// ---------------------------------------------------------------------------
// Parameterized differential sweep over whole workloads: for every input,
// branchy and single-path compute identical results, and the single-path pc
// trace never varies.
// ---------------------------------------------------------------------------

struct WorkloadCase {
  std::string name;
  AstProgram ast;
  std::string arrayName;      // array to randomize ("" = none)
  std::int64_t arrayLen = 0;
  std::vector<std::string> observables;
};

// gtest would otherwise list each case with a byte dump of the struct,
// which holds heap addresses and so changes from run to run.
void PrintTo(const WorkloadCase& c, std::ostream* os) { *os << c.name; }

class SinglePathDifferential : public ::testing::TestWithParam<WorkloadCase> {};

TEST_P(SinglePathDifferential, EquivalentAndInputInvariant) {
  const auto& wc = GetParam();
  const auto pb = compileBranchy(wc.ast);
  const auto ps = compileSinglePath(wc.ast);

  std::vector<Input> inputsB{Input{}};
  std::vector<Input> inputsS{Input{}};
  if (!wc.arrayName.empty()) {
    inputsB = workloads::randomArrayInputs(pb, wc.arrayName, wc.arrayLen, 6,
                                           2024, 32);
    inputsS = workloads::randomArrayInputs(ps, wc.arrayName, wc.arrayLen, 6,
                                           2024, 32);
  }

  std::vector<std::int32_t> refPcs;
  for (std::size_t k = 0; k < inputsB.size(); ++k) {
    auto rb = FunctionalCore::run(pb, inputsB[k]);
    auto rs = FunctionalCore::run(ps, inputsS[k]);
    ASSERT_TRUE(rb.completed && rs.completed);
    for (const auto& obs : wc.observables) {
      EXPECT_EQ(readVar(pb, rb.finalState, obs),
                readVar(ps, rs.finalState, obs))
          << wc.name << " input " << k << " var " << obs;
    }
    const auto pcs = pcSequence(rs.trace);
    if (refPcs.empty()) {
      refPcs = pcs;
    } else {
      EXPECT_EQ(pcs, refPcs) << wc.name << ": single-path trace varies";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, SinglePathDifferential,
    ::testing::Values(
        WorkloadCase{"sumLoop", workloads::sumLoop(8), "a", 8, {"s"}},
        WorkloadCase{"linearSearch", workloads::linearSearch(8), "a", 8,
                     {"i", "found"}},
        WorkloadCase{"bubbleSort", workloads::bubbleSort(6), "a", 6, {}}),
    [](const ::testing::TestParamInfo<WorkloadCase>& info) {
      return info.param.name;
    });

// Sorted-output check for bubbleSort under the sweep (separate, since the
// observable is the array).
TEST(SinglePath, BubbleSortSortsEveryInput) {
  const auto a = workloads::bubbleSort(5);
  const auto ps = compileSinglePath(a);
  const auto inputs = workloads::randomArrayInputs(ps, "a", 5, 8, 7, 32);
  const auto base = ps.variables.at("a");
  for (const auto& in : inputs) {
    auto r = FunctionalCore::run(ps, in);
    ASSERT_TRUE(r.completed);
    for (int i = 0; i + 1 < 5; ++i) {
      EXPECT_LE(r.finalState.mem[static_cast<std::size_t>(base + i)],
                r.finalState.mem[static_cast<std::size_t>(base + i + 1)]);
    }
  }
}

}  // namespace
}  // namespace pred::isa::ast
