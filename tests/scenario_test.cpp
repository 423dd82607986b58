// scenario_test.cpp — Scenario grids: cross-product enumeration, agreement
// with direct engine computation, result sinks, and cross-platform trace
// sharing through the engine's store.

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "study/scenario.h"
#include "witness_expect.h"
#include "isa/ast.h"
#include "isa/workloads.h"

namespace pred::study {
namespace {

ScenarioSuite smallSuite() {
  ScenarioSuite suite;
  {
    const auto prog = isa::ast::compileBranchy(isa::workloads::linearSearch(6));
    auto inputs = isa::workloads::randomArrayInputs(prog, "a", 6, 4, 5);
    for (auto& in : inputs) {
      in = isa::mergeInputs(in, isa::varInput(prog, "key", 1));
    }
    suite.addWorkload("linearSearch", prog, inputs);
  }
  {
    const auto prog = isa::ast::compileBranchy(isa::workloads::sumLoop(8));
    suite.addWorkload("sumLoop", prog, {isa::Input{}});
  }
  exp::PlatformOptions opts;
  opts.numStates = 4;
  suite.addPlatform("inorder-lru", opts);
  suite.addPlatform("inorder-scratchpad", opts);
  suite.addPlatform("pret", opts);
  return suite;
}

TEST(ScenarioSuite, RunsTheFullCrossProductInDeclarationOrder) {
  const auto suite = smallSuite();
  EXPECT_EQ(suite.numScenarios(), 6u);
  exp::ExperimentEngine engine;
  const auto results = suite.run(engine);
  ASSERT_EQ(results.size(), 6u);
  EXPECT_EQ(results[0].workload, "linearSearch");
  EXPECT_EQ(results[0].platform, "inorder-lru");
  EXPECT_EQ(results[1].platform, "inorder-scratchpad");
  EXPECT_EQ(results[3].workload, "sumLoop");
  for (const auto& r : results) {
    EXPECT_GE(r.numStates, 1u);
    EXPECT_GE(r.numInputs, 1u);
    EXPECT_LE(r.bcet, r.wcet);
    EXPECT_GT(r.pr.value, 0.0);
    EXPECT_LE(r.pr.value, 1.0);
    // Def. 3 quantifies over more pairs than Defs. 4/5, so Pr <= both.
    EXPECT_LE(r.pr.value, r.sipr.value + 1e-12);
    EXPECT_LE(r.pr.value, r.iipr.value + 1e-12);
  }
}

TEST(ScenarioSuite, ResultsMatchDirectEngineComputation) {
  const auto prog = isa::ast::compileBranchy(isa::workloads::linearSearch(6));
  auto inputs = isa::workloads::randomArrayInputs(prog, "a", 6, 4, 5);
  for (auto& in : inputs) {
    in = isa::mergeInputs(in, isa::varInput(prog, "key", 1));
  }
  exp::PlatformOptions opts;
  opts.numStates = 4;

  ScenarioSuite suite;
  suite.addWorkload("w", prog, inputs);
  suite.addPlatform("inorder-fifo", opts);
  suite.keepMatrices(true);
  exp::ExperimentEngine engine;
  const auto results = suite.run(engine);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].matrix.has_value());

  const auto model =
      exp::PlatformRegistry::instance().make("inorder-fifo", prog, opts);
  exp::ExperimentEngine direct;
  EXPECT_TRUE(*results[0].matrix ==
              direct.computeMatrix(*model, prog, inputs));
}

TEST(ScenarioSuite, MatricesAreDroppedByDefault) {
  const auto prog = isa::ast::compileBranchy(isa::workloads::sumLoop(4));
  ScenarioSuite suite;
  suite.addWorkload("w", prog, {isa::Input{}});
  exp::PlatformOptions opts;
  opts.numStates = 2;
  suite.addPlatform("inorder-lru", opts);
  exp::ExperimentEngine engine;
  const auto results = suite.run(engine);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].matrix.has_value());
}

TEST(ScenarioSuite, RegistryWorkloadsRunByName) {
  ScenarioSuite suite;
  suite.addWorkload("sum-16");
  EXPECT_THROW(suite.addWorkload("not-a-workload"), std::invalid_argument);
  exp::PlatformOptions opts;
  opts.numStates = 2;
  suite.addPlatform("inorder-scratchpad", opts);
  exp::ExperimentEngine engine;
  const auto results = suite.run(engine);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].workload, "sum-16");
  EXPECT_EQ(results[0].sipr.value, 1.0);  // scratchpad: |Q| = 1
}

TEST(ScenarioSuite, UnknownPlatformIsRejectedAtDeclarationTime) {
  ScenarioSuite suite;
  EXPECT_THROW(suite.addPlatform("not-a-platform"), std::invalid_argument);
}

TEST(ScenarioSuite, SharesTracesAcrossPlatforms) {
  const auto suite = smallSuite();  // 2 workloads x 3 platforms
  exp::ExperimentEngine engine;
  suite.run(engine);
  // 4 + 1 inputs, each traced exactly once despite 3 platforms replaying it.
  EXPECT_EQ(engine.traceStore().misses(), 5u);
  EXPECT_EQ(engine.traceStore().hits(), 10u);
}

TEST(ScenarioSuite, CsvHasHeaderAndOneLinePerScenario) {
  const auto suite = smallSuite();
  exp::ExperimentEngine engine;
  const auto results = suite.run(engine);
  const auto csv = ScenarioSuite::csv(results);
  std::istringstream lines(csv);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line,
            "workload,platform,num_states,num_inputs,bcet,wcet,pr,sipr,iipr,"
            "mode,lb,ub");
  std::size_t rows = 0;
  while (std::getline(lines, line)) {
    if (!line.empty()) ++rows;
  }
  EXPECT_EQ(rows, results.size());
}

TEST(ScenarioSuite, SinksEscapeHostileWorkloadNames) {
  ScenarioSuite suite;
  const auto prog = isa::ast::compileBranchy(isa::workloads::sumLoop(4));
  suite.addWorkload("search, \"warm\"", prog, {isa::Input{}});
  exp::PlatformOptions opts;
  opts.numStates = 1;
  suite.addPlatform("inorder-scratchpad", opts);
  exp::ExperimentEngine engine;
  const auto results = suite.run(engine);

  const auto csv = ScenarioSuite::csv(results);
  EXPECT_NE(csv.find("\"search, \"\"warm\"\"\",inorder-scratchpad"),
            std::string::npos);
  const auto json = ScenarioSuite::json(results);
  EXPECT_NE(json.find("\"workload\": \"search, \\\"warm\\\"\""),
            std::string::npos);
}

// ------------------------------------------------- batched single-pass run

/// Field-for-field identity of a batched finding with its sequential twin:
/// values, witnesses, AND provenance (names, labels, mode, requested set).
void expectSameFinding(const ScenarioResult& b, const ScenarioResult& s) {
  const std::string label = s.workload + "/" + s.platform;
  EXPECT_EQ(b.workload, s.workload) << label;
  EXPECT_EQ(b.platform, s.platform) << label;
  EXPECT_EQ(b.numStates, s.numStates) << label;
  EXPECT_EQ(b.numInputs, s.numInputs) << label;
  EXPECT_EQ(b.bcet, s.bcet) << label;
  EXPECT_EQ(b.wcet, s.wcet) << label;
  EXPECT_EQ(b.mode, s.mode) << label;
  EXPECT_EQ(b.provenance, s.provenance) << label;
  EXPECT_EQ(b.requested, s.requested) << label;
  EXPECT_EQ(b.stateLabels, s.stateLabels) << label;
  expectSamePredictabilityValue(b.pr, s.pr, label + "/Pr");
  expectSamePredictabilityValue(b.sipr, s.sipr, label + "/SIPr");
  expectSamePredictabilityValue(b.iipr, s.iipr, label + "/IIPr");
  EXPECT_EQ(b.matrix.has_value(), s.matrix.has_value()) << label;
  EXPECT_EQ(b.bounds.has_value(), s.bounds.has_value()) << label;
}

/// A grid engineered for witness ties: duplicated inputs guarantee equal
/// times across the input axis of every cell, and the |Q|=1 and stateless
/// platforms guarantee ties across states — if the batched merge broke the
/// smallest-index tie-break anywhere, these witnesses would move.
ScenarioSuite tiedSuite() {
  ScenarioSuite suite;
  {
    const auto prog = isa::ast::compileBranchy(isa::workloads::linearSearch(6));
    auto inputs = isa::workloads::randomArrayInputs(prog, "a", 6, 3, 5);
    for (auto& in : inputs) {
      in = isa::mergeInputs(in, isa::varInput(prog, "key", 1));
    }
    inputs.push_back(inputs[0]);  // duplicate input: ties on the i axis
    inputs.push_back(inputs[1]);
    suite.addWorkload("tiedSearch", prog, inputs);
  }
  {
    const auto prog = isa::ast::compileBranchy(isa::workloads::sumLoop(8));
    suite.addWorkload("sumLoop", prog,
                      {isa::Input{}, isa::Input{}});  // identical inputs
  }
  exp::PlatformOptions opts;
  opts.numStates = 4;
  suite.addPlatform("inorder-lru", opts);
  suite.addPlatform("inorder-scratchpad", opts);  // |Q| = 1: state ties
  suite.addPlatform("ooo-fifo", opts);            // packed OOO path
  suite.addPlatform("ooo-preschedule", opts);     // drain mode in the batch
  suite.addPlatform("pret", opts);
  return suite;
}

TEST(ScenarioSuite, BatchedRunMatchesSequentialOnTiedGrids) {
  const auto suite = tiedSuite();
  for (const int threads : {1, 2, 4, 8}) {
    exp::EngineConfig cfg{threads, 2, 3};
    exp::ExperimentEngine batched(cfg);
    exp::ExperimentEngine sequential(cfg);
    const auto rb = suite.run(batched);
    const auto rs = suite.runSequential(sequential);
    ASSERT_EQ(rb.size(), rs.size()) << "threads=" << threads;
    for (std::size_t k = 0; k < rb.size(); ++k) {
      expectSameFinding(rb[k], rs[k]);
    }
  }
}

TEST(ScenarioSuite, BatchedRunIssuesASingleGridWalk) {
  const auto suite = tiedSuite();

  exp::ExperimentEngine batched;
  suite.run(batched);
  // All 10 queries' cells went through ONE tiled pool pass — the per-query
  // barrier is gone.
  EXPECT_EQ(batched.gridWalks(), 1u);
  EXPECT_EQ(batched.matrixBuilds(), 0u);  // still streaming, no |Q|x|I|

  exp::ExperimentEngine sequential;
  suite.runSequential(sequential);
  EXPECT_EQ(sequential.gridWalks(), suite.numScenarios());
}

TEST(ScenarioSuite, BatchedRunSharesTracesLikeTheSequentialPath) {
  const auto suite = smallSuite();  // 2 workloads (4+1 inputs) x 3 platforms
  exp::ExperimentEngine engine;
  const auto first = suite.run(engine);
  EXPECT_EQ(engine.traceStore().misses(), 5u);
  EXPECT_EQ(engine.traceStore().hits(), 10u);
  const obs::RunReport afterFirst = engine.report();
  EXPECT_EQ(afterFirst.counter("engine.model_cache.misses"),
            suite.numScenarios());
  EXPECT_EQ(afterFirst.counter("engine.model_cache.hits"), 0u);

  // A second run on the same engine makes no model and resolves no trace:
  // one model-cache hit per grid, and the same findings.
  const auto second = suite.run(engine);
  const obs::RunReport delta = engine.report().deltaSince(afterFirst);
  EXPECT_EQ(delta.counter("engine.model_cache.hits"), suite.numScenarios());
  EXPECT_EQ(delta.counter("engine.model_cache.misses"), 0u);
  EXPECT_EQ(delta.counter("trace_store.misses"), 0u);
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t k = 0; k < first.size(); ++k) {
    expectSameFinding(second[k], first[k]);
  }
}

TEST(ScenarioSuite, KeepMatricesTakesThePerQueryPathWithSameResults) {
  auto suite = tiedSuite();
  suite.keepMatrices(true);
  exp::ExperimentEngine a;
  exp::ExperimentEngine b;
  const auto ra = suite.run(a);
  const auto rb = suite.runSequential(b);
  EXPECT_EQ(a.gridWalks(), suite.numScenarios());  // fell back per query
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t k = 0; k < ra.size(); ++k) {
    ASSERT_TRUE(ra[k].matrix.has_value());
    EXPECT_TRUE(*ra[k].matrix == *rb[k].matrix);
    expectSameFinding(ra[k], rb[k]);
  }
}

TEST(ScenarioSuite, JsonAndTableRenderEveryScenario) {
  const auto suite = smallSuite();
  exp::ExperimentEngine engine;
  const auto results = suite.run(engine);
  const auto json = ScenarioSuite::json(results);
  EXPECT_EQ(json.front(), '[');
  for (const auto& r : results) {
    EXPECT_NE(json.find("\"workload\": \"" + r.workload + "\""),
              std::string::npos);
    EXPECT_NE(json.find("\"platform\": \"" + r.platform + "\""),
              std::string::npos);
  }
  const auto table = ScenarioSuite::table(results);
  EXPECT_NE(table.find("linearSearch"), std::string::npos);
  EXPECT_NE(table.find("pret"), std::string::npos);
}

}  // namespace
}  // namespace pred::study
