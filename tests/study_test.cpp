// study_test.cpp — The query front door: round-trip bit-identity against
// the legacy core:: evaluators, workload registry behavior, catalog
// integrity, golden-file sink output (RFC-4180 / JSON escaping), and
// registry thread-safety.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <type_traits>

#include "exp/trace_store.h"
#include "isa/ast.h"
#include "isa/workloads.h"
#include "study/catalog.h"
#include "study/query.h"
#include "study/scenario.h"

namespace pred::study {
namespace {

// The exp layer shares core's cycle type (no shadow alias).
static_assert(std::is_same_v<exp::Cycles, core::Cycles>);
static_assert(std::is_same_v<exp::Cycles, std::uint64_t>);

/// Witness-for-witness equality: same quotient, same times, same indices,
/// same provenance — the "bit-identical to the legacy evaluators" claim.
void expectIdentical(const core::PredictabilityValue& a,
                     const core::PredictabilityValue& b) {
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.minTime, b.minTime);
  EXPECT_EQ(a.maxTime, b.maxTime);
  EXPECT_EQ(a.q1, b.q1);
  EXPECT_EQ(a.i1, b.i1);
  EXPECT_EQ(a.q2, b.q2);
  EXPECT_EQ(a.i2, b.i2);
  EXPECT_EQ(a.provenance, b.provenance);
}

struct SmallSystem {
  isa::Program prog;
  std::vector<isa::Input> inputs;
  exp::PlatformOptions opts;
};

SmallSystem smallSystem() {
  SmallSystem s;
  s.prog = isa::ast::compileBranchy(isa::workloads::linearSearch(6));
  s.inputs = isa::workloads::randomArrayInputs(s.prog, "a", 6, 4, 5);
  for (auto& in : s.inputs) {
    in = isa::mergeInputs(in, isa::varInput(s.prog, "key", 1));
  }
  s.opts.numStates = 4;
  return s;
}

TEST(Query, ExhaustiveResultsBitIdenticalToLegacyEvaluators) {
  const auto s = smallSystem();

  // Legacy path: platform -> engine matrix -> core evaluators.
  const auto model =
      exp::PlatformRegistry::instance().make("inorder-fifo", s.prog, s.opts);
  exp::ExperimentEngine direct;
  const auto matrix = direct.computeMatrix(*model, s.prog, s.inputs);

  // Query path on the same workload/platform/options.
  exp::ExperimentEngine engine;
  const auto f = Query()
                     .workload("w", s.prog, s.inputs)
                     .platform("inorder-fifo", s.opts)
                     .keepMatrix()
                     .run(engine);

  ASSERT_TRUE(f.matrix.has_value());
  EXPECT_TRUE(*f.matrix == matrix);
  EXPECT_EQ(f.bcet, matrix.bcet());
  EXPECT_EQ(f.wcet, matrix.wcet());
  expectIdentical(f.pr, core::timingPredictability(matrix));
  expectIdentical(f.sipr, core::stateInducedPredictability(matrix));
  expectIdentical(f.iipr, core::inputInducedPredictability(matrix));
}

TEST(Query, RestrictedUncertaintyMatchesLegacySubsetEvaluators) {
  const auto s = smallSystem();
  const auto model =
      exp::PlatformRegistry::instance().make("inorder-lru", s.prog, s.opts);
  exp::ExperimentEngine direct;
  const auto matrix = direct.computeMatrix(*model, s.prog, s.inputs);

  const std::vector<std::size_t> qs = {0, 2};
  const std::vector<std::size_t> is = {1, 3};
  exp::ExperimentEngine engine;
  const auto f = Query()
                     .workload("w", s.prog, s.inputs)
                     .platform("inorder-lru", s.opts)
                     .uncertainty(qs, is)
                     .run(engine);

  expectIdentical(f.pr, core::timingPredictability(matrix, qs, is));
  expectIdentical(f.sipr, core::stateInducedPredictability(matrix, qs, is));
  expectIdentical(f.iipr, core::inputInducedPredictability(matrix, qs, is));
  EXPECT_EQ(f.bcet, f.pr.minTime);
  EXPECT_EQ(f.wcet, f.pr.maxTime);
  // The subset streams through the engine's walk: no dense matrix.
  EXPECT_EQ(engine.matrixBuilds(), 0u);

  // Subsets can only raise Pr (Section 2's extent-of-uncertainty argument).
  const auto full = core::timingPredictability(matrix);
  EXPECT_GE(f.pr.value, full.value);

  // Subsets are sets: order and repeats change nothing, witnesses
  // included, whether the cells come from the walk or the kept matrix.
  for (const bool keep : {false, true}) {
    SCOPED_TRACE(keep ? "keepMatrix" : "streaming");
    exp::ExperimentEngine e;
    const auto g = Query()
                       .workload("w", s.prog, s.inputs)
                       .platform("inorder-lru", s.opts)
                       .uncertainty({2, 0, 2}, {3, 1})
                       .keepMatrix(keep)
                       .run(e);
    EXPECT_EQ(g.bcet, f.bcet);
    EXPECT_EQ(g.wcet, f.wcet);
    expectIdentical(g.pr, f.pr);
    expectIdentical(g.sipr, f.sipr);
    expectIdentical(g.iipr, f.iipr);
    EXPECT_EQ(e.matrixBuilds(), keep ? 1u : 0u);
    ASSERT_EQ(g.matrix.has_value(), keep);
    if (keep) EXPECT_TRUE(*g.matrix == matrix);
  }
}

TEST(Definitions, RestrictedEvaluatorsOnFullSetsMatchUnrestricted) {
  const auto s = smallSystem();
  const auto model =
      exp::PlatformRegistry::instance().make("inorder-fifo", s.prog, s.opts);
  exp::ExperimentEngine engine;
  const auto m = engine.computeMatrix(*model, s.prog, s.inputs);

  std::vector<std::size_t> qs(m.numStates()), is(m.numInputs());
  for (std::size_t q = 0; q < m.numStates(); ++q) qs[q] = q;
  for (std::size_t i = 0; i < m.numInputs(); ++i) is[i] = i;

  expectIdentical(core::stateInducedPredictability(m, qs, is),
                  core::stateInducedPredictability(m));
  expectIdentical(core::inputInducedPredictability(m, qs, is),
                  core::inputInducedPredictability(m));
  expectIdentical(core::timingPredictability(m, qs, is),
                  core::timingPredictability(m));
}

TEST(Query, SampledModeOverestimatesAndIsReproducible) {
  const auto s = smallSystem();
  exp::ExperimentEngine engine;
  const auto base = Query()
                        .workload("w", s.prog, s.inputs)
                        .platform("inorder-lru", s.opts);

  auto sampledQuery = base;
  sampledQuery.mode(Sampled{8, 42});
  const auto sampled = sampledQuery.run(engine);
  const auto exhaustive = base.run(engine);

  EXPECT_EQ(sampled.provenance, core::Inherence::Sampled);
  EXPECT_EQ(sampled.mode, core::EvalMode::Sampled);
  EXPECT_EQ(sampled.requested, std::vector<Measure>{Measure::Pr});
  EXPECT_FALSE(sampled.has(Measure::SIPr));
  EXPECT_THROW(sampled.value(Measure::SIPr), std::logic_error);
  // min over a subset >= min over the full set.
  EXPECT_GE(sampled.pr.value, exhaustive.pr.value);

  const auto again = sampledQuery.run(engine);
  expectIdentical(sampled.pr, again.pr);

  // Explicitly requesting a non-Pr measure under sampling is an error, not
  // a silently narrowed result.
  auto bad = base;
  bad.measures({Measure::SIPr}).mode(Sampled{8, 42});
  EXPECT_THROW(bad.run(engine), std::invalid_argument);

  // Sampling never materializes the matrix, so keepMatrix is an error too.
  auto badMatrix = base;
  badMatrix.mode(Sampled{8, 42}).keepMatrix();
  EXPECT_THROW(badMatrix.run(engine), std::invalid_argument);
}

TEST(Query, AnalysisBoundsModeAttachesWellFormedDecomposition) {
  const auto s = smallSystem();
  exp::ExperimentEngine engine;
  const auto f = Query()
                     .workload("w", s.prog, s.inputs)
                     .platform("inorder-lru", s.opts)
                     .mode(AnalysisBounds{})
                     .run(engine);
  ASSERT_TRUE(f.bounds.has_value());
  EXPECT_TRUE(f.bounds->wellFormed());
  EXPECT_EQ(f.bounds->bcet, f.bcet);
  EXPECT_EQ(f.bounds->wcet, f.wcet);
  // Exhaustive measures still carry inherent provenance.
  EXPECT_EQ(f.provenance, core::Inherence::Exhaustive);
}

/// A query rejected up front never reached the engine's walk.
void expectNothingRan(exp::ExperimentEngine& engine) {
  EXPECT_EQ(engine.gridWalks(), 0u);
  EXPECT_EQ(engine.matrixBuilds(), 0u);
  EXPECT_EQ(engine.traceStore().misses(), 0u);
}

TEST(Query, AnalysisBoundsRejectsUnmodeledPlatforms) {
  const auto s = smallSystem();
  exp::ExperimentEngine engine;
  EXPECT_THROW(Query()
                   .workload("w", s.prog, s.inputs)
                   .platform("pret", s.opts)
                   .mode(AnalysisBounds{})
                   .run(engine),
               std::invalid_argument);
  // runAll checks every platform before running the first, so a modeled
  // platform ahead of the unmodeled one does not run either.
  EXPECT_THROW(Query()
                   .workload("w", s.prog, s.inputs)
                   .platform("inorder-lru", s.opts)
                   .platform("pret", s.opts)
                   .mode(AnalysisBounds{})
                   .runAll(engine),
               std::invalid_argument);
  expectNothingRan(engine);
}

TEST(Query, DeclarationErrorsAreRejectedEagerly) {
  EXPECT_THROW(Query().workload("no-such-workload"), std::invalid_argument);
  EXPECT_THROW(Query().platform("no-such-platform"), std::invalid_argument);
  EXPECT_THROW(Query().measures({}), std::invalid_argument);
  EXPECT_THROW(Query().mode(Sampled{0, 1}), std::invalid_argument);

  exp::ExperimentEngine engine;
  EXPECT_THROW(Query().platform("inorder-lru").run(engine),
               std::invalid_argument);  // no workload
  EXPECT_THROW(Query().workload("sum-16").run(engine),
               std::invalid_argument);  // no platform
  EXPECT_THROW(Query().workload("sum-16").runAll(engine),
               std::invalid_argument);
  EXPECT_THROW(Query()
                   .workload("sum-16")
                   .platform("inorder-scratchpad")
                   .uncertainty({99}, {})
                   .run(engine),
               std::invalid_argument);  // subset out of range
  expectNothingRan(engine);
}

TEST(WorkloadRegistry, PresetsAreValidAndSorted) {
  auto& reg = WorkloadRegistry::instance();
  const auto names = reg.names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const char* name :
       {"sum-16", "sum-24", "sum-32", "linearsearch-12", "linearsearch-12-sp",
        "linearsearch-16x64", "linearsearch-16x64-dup",
        "bubblesort-8", "bubblesort-8-sp", "bubblesort-10", "branchtree-5",
        "branchtree-5-sp", "matmul-4", "divkernel-8",
        "divkernel-12-magnitudes", "heapmix-8", "callroundrobin-8x6x4"}) {
    ASSERT_NE(reg.find(name), nullptr) << name;
    const auto w = reg.make(name);
    EXPECT_FALSE(w.inputs.empty()) << name;
    EXPECT_EQ(w.program.validate(), std::nullopt) << name;
  }
}

TEST(WorkloadRegistry, RejectsDuplicatesAndUnknownNames) {
  WorkloadRegistry fresh;
  EXPECT_THROW(fresh.add(Workload{"sum-16", "dup", nullptr}),
               std::invalid_argument);
  EXPECT_THROW(fresh.make("no-such-workload"), std::invalid_argument);
  EXPECT_EQ(fresh.find("no-such-workload"), nullptr);
  fresh.add(Workload{"custom", "a custom workload", [] {
                       return WorkloadInstance{
                           isa::ast::compileBranchy(
                               isa::workloads::sumLoop(2)),
                           {isa::Input{}}};
                     }});
  EXPECT_NE(fresh.find("custom"), nullptr);
  EXPECT_EQ(fresh.make("custom").inputs.size(), 1u);
}

TEST(WorkloadRegistry, SinglePathSiblingsShareInputs) {
  auto& reg = WorkloadRegistry::instance();
  for (const char* base : {"linearsearch-12", "bubblesort-8",
                           "branchtree-5"}) {
    const auto branchy = reg.make(base);
    const auto sp = reg.make(std::string(base) + "-sp");
    ASSERT_EQ(branchy.inputs.size(), sp.inputs.size()) << base;
    for (std::size_t k = 0; k < branchy.inputs.size(); ++k) {
      EXPECT_TRUE(branchy.inputs[k] == sp.inputs[k]) << base;
    }
  }
}

TEST(WorkloadRegistry, NamesDeterministicallyPinProgramAndLayout) {
  // The grid result cache keys jobs by workload NAME
  // (exp::canonicalResultIdentity / grid::jobFingerprint): that is sound
  // only if a name fully determines the program — code AND MemoryLayout,
  // since the layout's bases steer split-cache routing and memWords sets
  // the address wrap — plus the input set.  Every preset must be a pure
  // factory: two make() calls, field-identical results.
  auto& reg = WorkloadRegistry::instance();
  for (const auto& name : reg.names()) {
    const auto a = reg.make(name);
    const auto b = reg.make(name);
    EXPECT_EQ(exp::programFingerprint(a.program),
              exp::programFingerprint(b.program))
        << name;
    EXPECT_EQ(a.program.layout.staticBase, b.program.layout.staticBase)
        << name;
    EXPECT_EQ(a.program.layout.stackBase, b.program.layout.stackBase)
        << name;
    EXPECT_EQ(a.program.layout.heapBase, b.program.layout.heapBase) << name;
    EXPECT_EQ(a.program.layout.memWords, b.program.layout.memWords) << name;
    ASSERT_EQ(a.inputs.size(), b.inputs.size()) << name;
    for (std::size_t k = 0; k < a.inputs.size(); ++k) {
      EXPECT_TRUE(a.inputs[k] == b.inputs[k]) << name << " input " << k;
    }
  }
}

TEST(WorkloadRegistry, DupPresetIsDuplicateHeavy) {
  // linearsearch-16x64-dup: 16 base arrays with 16 distinct planted scan
  // lengths x 4 trace-equal variants each.  The renamed variant shares
  // its store key with the base (Input equality ignores names), so 64
  // inputs hit 48 store entries; every variant is trace-equal to its
  // base, so EXACTLY 16 trace classes — four inputs per class, which is
  // the whole point of the collapse grid.
  const auto w =
      WorkloadRegistry::instance().make("linearsearch-16x64-dup");
  ASSERT_EQ(w.inputs.size(), 64u);
  exp::TraceStore store;
  for (const auto& in : w.inputs) {
    store.entryRefFor(w.program, in, exp::ReplayForm::None);
  }
  EXPECT_EQ(store.size(), 48u);
  EXPECT_EQ(store.classCount(), 16u);
}

TEST(Registries, ConcurrentAddAndFindAreSafe) {
  exp::PlatformRegistry platforms;
  WorkloadRegistry workloads;
  constexpr int kThreads = 8, kPerThread = 25;
  std::atomic<int> readMisses{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (int k = 0; k < kPerThread; ++k) {
        const auto id = std::to_string(t) + "-" + std::to_string(k);
        platforms.add(exp::Platform{"p" + id, "concurrent", nullptr});
        workloads.add(Workload{"w" + id, "concurrent", nullptr});
        // Reads interleave with writes from the other threads.
        if (platforms.find("inorder-lru") == nullptr) ++readMisses;
        if (workloads.find("sum-16") == nullptr) ++readMisses;
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(readMisses.load(), 0);
  for (int t = 0; t < kThreads; ++t) {
    for (int k = 0; k < kPerThread; ++k) {
      const auto id = std::to_string(t) + "-" + std::to_string(k);
      EXPECT_NE(platforms.find("p" + id), nullptr);
      EXPECT_NE(workloads.find("w" + id), nullptr);
    }
  }
}

TEST(Catalog, AllThirteenRowsRenderAsTemplateRows) {
  EXPECT_EQ(catalog::table1().size(), 7u);
  EXPECT_EQ(catalog::table2().size(), 6u);
  for (const auto* table : {&catalog::table1(), &catalog::table2()}) {
    for (const auto& inst : *table) {
      const auto row = core::tableRow(inst);
      EXPECT_NE(row.find(inst.approach), std::string::npos);
      EXPECT_NE(row.find(inst.citation), std::string::npos);
      EXPECT_FALSE(inst.spec.uncertainties.empty()) << inst.approach;
    }
  }
}

TEST(Catalog, BoundRowsResolveAgainstTheRegistries) {
  for (const auto* table : {&catalog::table1(), &catalog::table2()}) {
    for (const auto& inst : *table) {
      if (inst.spec.workload.empty()) continue;
      EXPECT_NE(WorkloadRegistry::instance().find(inst.spec.workload),
                nullptr)
          << inst.approach;
      for (const auto& p : inst.spec.platforms) {
        EXPECT_NE(exp::PlatformRegistry::instance().find(p), nullptr)
            << inst.approach << " / " << p;
      }
      if (!inst.spec.platforms.empty()) {
        EXPECT_NO_THROW(compile(inst.spec)) << inst.approach;
      }
    }
  }
}

TEST(Catalog, DeclarativeOnlyRowsDoNotCompile) {
  EXPECT_THROW(compile(catalog::row("CoMPSoC").spec), std::invalid_argument);
  EXPECT_THROW(compile(catalog::row("Burst DRAM refresh").spec),
               std::invalid_argument);
}

TEST(Catalog, SinglePathRowRunsEndToEnd) {
  exp::ExperimentEngine engine;
  const auto f = compile(catalog::row("Single-path").spec).run(engine);
  EXPECT_EQ(f.numStates, 1u);
  EXPECT_LT(f.iipr.value, 1.0);  // the branchy compilation varies with input
  EXPECT_EQ(f.workload, "linearsearch-12");
}

TEST(StudyReport, CsvGoldenFileWithHostileNames) {
  exp::ExperimentEngine engine;
  const auto prog = isa::ast::compileBranchy(isa::workloads::sumLoop(4));
  exp::PlatformOptions opts;
  opts.numStates = 1;
  const auto f = Query()
                     .workload("search, \"warm\"", prog, {isa::Input{}})
                     .platform("inorder-scratchpad", opts)
                     .run(engine);
  const auto t = std::to_string(f.bcet);  // 1x1 matrix: bcet == wcet
  const std::string expected =
      "workload,platform,num_states,num_inputs,bcet,wcet,pr,sipr,iipr,mode,"
      "lb,ub\n"
      "\"search, \"\"warm\"\"\",inorder-scratchpad,1,1," +
      t + "," + t + ",1.000000,1.000000,1.000000,exhaustive,,\n";
  EXPECT_EQ(StudyReport::csv({f}), expected);
}

TEST(StudyReport, JsonGoldenFileWithHostileNames) {
  exp::ExperimentEngine engine;
  const auto prog = isa::ast::compileBranchy(isa::workloads::sumLoop(4));
  exp::PlatformOptions opts;
  opts.numStates = 1;
  const auto f = Query()
                     .workload("line\nbreak \"q\"", prog, {isa::Input{}})
                     .platform("inorder-scratchpad", opts)
                     .measures({Measure::Pr})
                     .run(engine);
  const auto t = std::to_string(f.bcet);
  const std::string expected =
      "[\n  {\"workload\": \"line\\nbreak \\\"q\\\"\", "
      "\"platform\": \"inorder-scratchpad\", \"num_states\": 1, "
      "\"num_inputs\": 1, \"bcet\": " + t + ", \"wcet\": " + t +
      ", \"pr\": 1.000000, \"mode\": \"exhaustive\"}\n]\n";
  EXPECT_EQ(StudyReport::json({f}), expected);
}

TEST(StudyReport, TableRendersRequestedMeasuresOnly) {
  exp::ExperimentEngine engine;
  const auto prog = isa::ast::compileBranchy(isa::workloads::sumLoop(4));
  exp::PlatformOptions opts;
  opts.numStates = 1;
  const auto f = Query()
                     .workload("w", prog, {isa::Input{}})
                     .platform("inorder-scratchpad", opts)
                     .measures({Measure::IIPr})
                     .run(engine);
  const auto table = StudyReport::table({f});
  EXPECT_NE(table.find("IIPr"), std::string::npos);
  EXPECT_NE(table.find("exhaustive"), std::string::npos);
  const auto csv = StudyReport::csv({f});
  // Un-requested Pr/SIPr render as empty CSV fields.
  EXPECT_NE(csv.find(",,1.000000,exhaustive"), std::string::npos);
}

TEST(Query, SpecStaysInStepWithExplicitPlatformOptions) {
  // The declarative form must describe what run() executes: |Q| requested
  // through per-platform options round-trips through spec().
  exp::PlatformOptions o;
  o.numStates = 16;
  Query q;
  q.workload("sum-16").platform("inorder-lru", o);
  EXPECT_EQ(q.spec().numStates, 16);
}

TEST(Query, RunAllCrossesPlatformsInDeclarationOrder) {
  exp::ExperimentEngine engine;
  exp::PlatformOptions opts;
  opts.numStates = 2;
  const auto report = Query()
                          .workload("sum-16")
                          .platform("inorder-scratchpad", opts)
                          .platform("pret", opts)
                          .runAll(engine);
  ASSERT_EQ(report.findings.size(), 2u);
  EXPECT_EQ(report.findings[0].platform, "inorder-scratchpad");
  EXPECT_EQ(report.findings[1].platform, "pret");
  EXPECT_EQ(report.findings[0].workload, "sum-16");
}

}  // namespace
}  // namespace pred::study
