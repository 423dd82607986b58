// obs_test.cpp — The observability layer's gate (src/obs/): the
// MetricsRegistry substrate (get-or-create, stable addresses, lock-free
// concurrent sums), the RunReport wire format (exact round-trips, strict
// parse errors, fleet merges), the per-run delta semantics the study layer
// attaches to Findings, and the determinism contract: everything a
// normalized() report keeps is byte-stable run over run.  The engine
// integration checks pin the unified counters to the legacy accessor shims
// (matrixBuilds()/gridWalks()) so the migration cannot drift.

#include <gtest/gtest.h>

#include <cctype>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/engine.h"
#include "exp/platform.h"
#include "exp/shard.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/span.h"
#include "study/distributed.h"
#include "study/query.h"
#include "study/workloads.h"

namespace pred {
namespace {

// ------------------------------------------------------------ registry

TEST(MetricsRegistry, GetOrCreateReturnsStableAddresses) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("engine.cells");
  obs::Counter& b = reg.counter("engine.cells");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);

  obs::PhaseAccum& p = reg.phase("resolve");
  obs::PhaseAccum& q = reg.phase("resolve");
  EXPECT_EQ(&p, &q);
  // Distinct names are distinct metrics, even across kinds.
  EXPECT_NE(&reg.counter("resolve"), static_cast<void*>(&p));
}

TEST(MetricsRegistry, RejectsWhitespaceNames) {
  obs::MetricsRegistry reg;
  EXPECT_THROW(reg.counter(""), std::invalid_argument);
  EXPECT_THROW(reg.counter("has space"), std::invalid_argument);
  EXPECT_THROW(reg.phase("tab\tname"), std::invalid_argument);
  EXPECT_THROW(reg.phase("line\nname"), std::invalid_argument);
}

TEST(MetricsRegistry, ConcurrentAddsSumExactly) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("c");
  obs::PhaseAccum& p = reg.phase("p");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      for (int k = 0; k < kPerThread; ++k) {
        c.add();
        p.record(2);
      }
    });
  }
  for (auto& t : ts) t.join();  // the join publishes the relaxed writes
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(p.count(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(p.totalNs(),
            static_cast<std::uint64_t>(2 * kThreads * kPerThread));
  EXPECT_EQ(p.maxNs(), 2u);
}

TEST(MetricsRegistry, SnapshotAndReset) {
  obs::MetricsRegistry reg;
  reg.counter("a").add(5);
  reg.phase("walk").record(7);
  const auto counters = reg.counterValues();
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters.at("a"), 5u);
  const auto phases = reg.phaseValues();
  ASSERT_EQ(phases.size(), 1u);
  EXPECT_EQ(phases.at("walk").count, 1u);
  EXPECT_EQ(phases.at("walk").totalNs, 7u);
  EXPECT_EQ(phases.at("walk").maxNs, 7u);

  reg.reset();
  EXPECT_EQ(reg.counter("a").value(), 0u);  // entry survives, value zeroed
  EXPECT_EQ(reg.phaseValues().at("walk").count, 0u);
}

TEST(PhaseAccum, MaxTracksLargestSpan) {
  obs::PhaseAccum p;
  p.record(5);
  p.record(50);
  p.record(20);
  EXPECT_EQ(p.count(), 3u);
  EXPECT_EQ(p.totalNs(), 75u);
  EXPECT_EQ(p.maxNs(), 50u);
}

TEST(WorkerUtil, RecordsByDenseIdAndDropsOutOfRange) {
  obs::WorkerUtil util(2);
  EXPECT_EQ(util.workers(), 2u);
  util.record(0, 100, 3);
  util.record(1, 40, 1);
  util.record(1, 60, 2);
  util.record(7, 999, 9);   // wider caller-side pool: dropped, not UB
  util.record(-1, 999, 9);  // never recorded
  EXPECT_EQ(util.busyNs(0), 100u);
  EXPECT_EQ(util.items(0), 3u);
  EXPECT_EQ(util.participations(0), 1u);
  EXPECT_EQ(util.busyNs(1), 100u);
  EXPECT_EQ(util.items(1), 3u);
  EXPECT_EQ(util.participations(1), 2u);
}

TEST(Span, RecordsIntoAccumAndDisarmsOnNull) {
  obs::PhaseAccum p;
  { obs::Span s(&p); }
  { obs::Span s(nullptr); }  // disarmed: must not crash or record
  if (obs::compiledIn()) {
    EXPECT_EQ(p.count(), 1u);
  } else {
    EXPECT_EQ(p.count(), 0u);
  }
}

// ------------------------------------------------------ report wire format

obs::RunReport sampleReport() {
  obs::RunReport r;
  r.platform = "inorder-lru";
  r.workload = "bubblesort-8";
  r.wallNs = 123456789;
  r.counters = {{"engine.cells", 4096}, {"trace_store.hits", 7}};
  r.phases["resolve"] = obs::PhaseStat{4, 2000, 900};
  r.phases["replay.packed"] = obs::PhaseStat{4, 9000, 4000};
  r.workers = {obs::WorkerStat{5000, 100, 2}, obs::WorkerStat{4000, 28, 1}};
  r.shards = {obs::ShardStat{"q[0,4)xi[0,8)", 800, 32, 6, 2},
              obs::ShardStat{"q[4,8)xi[0,8)", 1200, 32, 8, 0}};
  return r;
}

TEST(RunReport, SerializeRoundTripsExactly) {
  const obs::RunReport r = sampleReport();
  const std::string wire = r.serialize();
  const obs::RunReport back = obs::RunReport::deserialize(wire);
  EXPECT_EQ(back.serialize(), wire);
  EXPECT_EQ(back.platform, "inorder-lru");
  EXPECT_EQ(back.workload, "bubblesort-8");
  EXPECT_EQ(back.wallNs, 123456789u);
  EXPECT_EQ(back.counter("engine.cells"), 4096u);
  EXPECT_EQ(back.counter("not.there"), 0u);
  ASSERT_EQ(back.phases.size(), 2u);
  EXPECT_EQ(back.phases.at("replay.packed").maxNs, 4000u);
  ASSERT_EQ(back.workers.size(), 2u);
  EXPECT_EQ(back.workers[1].items, 28u);
  ASSERT_EQ(back.shards.size(), 2u);
  EXPECT_EQ(back.shards[1].label, "q[4,8)xi[0,8)");
  EXPECT_DOUBLE_EQ(back.shards[0].hitRate(), 0.75);
  EXPECT_DOUBLE_EQ(obs::ShardStat{}.hitRate(), 0.0);  // no lookups -> 0
}

TEST(RunReport, EmptyReportRoundTrips) {
  const obs::RunReport r;  // all defaults; labels are "-"
  const obs::RunReport back = obs::RunReport::deserialize(r.serialize());
  EXPECT_EQ(back.serialize(), r.serialize());
  EXPECT_TRUE(back.counters.empty());
  EXPECT_TRUE(back.shards.empty());
}

TEST(RunReport, DeserializeRejectsMalformedInput) {
  const std::string good = sampleReport().serialize();
  // Strictness sweep: every mutation must throw, never UB.
  const std::vector<std::string> bad = {
      "",
      "pred-shard v1\nend\n",          // wrong header
      "pred-report v2\n",              // wrong version
      "pred-report v1\nplatform\n",    // truncated mid-field
      "pred-report v1\nworkload w\n",  // fields out of order
      good + "trailing",               // trailing content after end
      "pred-report v1\nplatform p\nworkload w\nwall-ns x\n",  // bad number
      "pred-report v1\nplatform p\nworkload w\nwall-ns 1\ncounters 2\n"
      "a 1\na 2\nphases 0\nworkers 0\nshards 0\nend\n",  // duplicate counter
      "pred-report v1\nplatform p\nworkload w\nwall-ns 1\ncounters 0\n"
      "phases 1\nx 1 2\nworkers 0\nshards 0\nend\n",  // short phase row
  };
  for (const auto& text : bad) {
    EXPECT_THROW(obs::RunReport::deserialize(text), std::invalid_argument)
        << "accepted: " << text;
  }
}

TEST(RunReport, SerializeRejectsWhitespaceLabels) {
  obs::RunReport r;
  r.platform = "two words";
  EXPECT_THROW(r.serialize(), std::invalid_argument);
  r.platform = "ok";
  r.shards.push_back(obs::ShardStat{"bad label", 0, 0, 0, 0});
  EXPECT_THROW(r.serialize(), std::invalid_argument);
}

TEST(RunReport, JsonAndTextRenderTheFleetView) {
  const obs::RunReport r = sampleReport();
  const std::string json = r.json();
  EXPECT_NE(json.find("\"engine.cells\": 4096"), std::string::npos);
  EXPECT_NE(json.find("\"hit_rate\": 0.75"), std::string::npos);
  const std::string text = r.text();
  EXPECT_NE(text.find("bubblesort-8 on inorder-lru"), std::string::npos);
  // Slowest-shard attribution and wall skew (1200 / 800 = 1.50x).
  EXPECT_NE(text.find("slowest q[4,8)xi[0,8)"), std::string::npos);
  EXPECT_NE(text.find("wall skew 1.50x"), std::string::npos);
}

// ----------------------------------------------------------- delta / norm

TEST(RunReport, DeltaSinceSubtractsAndDropsIdlePhases) {
  obs::RunReport before;
  before.counters = {{"a", 10}, {"b", 5}};
  before.phases["walk"] = obs::PhaseStat{2, 100, 80};
  before.phases["merge"] = obs::PhaseStat{1, 50, 50};
  before.workers = {obs::WorkerStat{100, 10, 1}};

  obs::RunReport after = before;
  after.counters["a"] = 17;
  after.counters["c"] = 3;
  after.phases["walk"] = obs::PhaseStat{5, 160, 90};
  after.workers[0] = obs::WorkerStat{150, 14, 2};

  const obs::RunReport d = after.deltaSince(before);
  EXPECT_EQ(d.counter("a"), 7u);
  EXPECT_EQ(d.counter("b"), 0u);
  EXPECT_EQ(d.counter("c"), 3u);
  ASSERT_EQ(d.phases.count("walk"), 1u);
  EXPECT_EQ(d.phases.at("walk").count, 3u);
  EXPECT_EQ(d.phases.at("walk").totalNs, 60u);
  // The lifetime max (90) predates the window, whose spans total 60.
  EXPECT_EQ(d.phases.at("walk").maxNs, 60u);
  // merge did not advance during the run -> dropped from the delta.
  EXPECT_EQ(d.phases.count("merge"), 0u);
  ASSERT_EQ(d.workers.size(), 1u);
  EXPECT_EQ(d.workers[0].busyNs, 50u);
  EXPECT_EQ(d.workers[0].items, 4u);
  EXPECT_EQ(d.workers[0].participations, 1u);
}

TEST(RunReport, DeltaSinceSaturatesInsteadOfWrapping) {
  obs::RunReport before;
  before.counters = {{"a", 100}};
  obs::RunReport after;
  after.counters = {{"a", 40}};  // e.g. a reset between snapshots
  EXPECT_EQ(after.deltaSince(before).counter("a"), 0u);
}

TEST(RunReport, NormalizedZeroesEveryNondeterministicField) {
  const obs::RunReport n = sampleReport().normalized();
  EXPECT_EQ(n.wallNs, 0u);
  for (const auto& [name, p] : n.phases) {
    EXPECT_GT(p.count, 0u) << name;  // span counts are deterministic: kept
    EXPECT_EQ(p.totalNs, 0u) << name;
    EXPECT_EQ(p.maxNs, 0u) << name;
  }
  ASSERT_EQ(n.workers.size(), 2u);  // worker COUNT is stable
  for (const auto& w : n.workers) {
    EXPECT_EQ(w.busyNs, 0u);
    EXPECT_EQ(w.items, 0u);
    EXPECT_EQ(w.participations, 0u);
  }
  ASSERT_EQ(n.shards.size(), 2u);
  for (const auto& s : n.shards) EXPECT_EQ(s.wallNs, 0u);
  EXPECT_EQ(n.shards[0].cells, 32u);  // structure survives
  EXPECT_EQ(n.counter("engine.cells"), 4096u);
}

// ------------------------------------------------------------ fleet merge

TEST(MergeFleet, FoldsKShardReportsIntoTheFleetView) {
  std::vector<obs::RunReport> parts;
  for (int k = 0; k < 3; ++k) {
    obs::RunReport r;
    r.platform = "inorder-lru";
    r.workload = "bubblesort-8";
    r.wallNs = 1000 * (k + 1);
    r.counters = {{"engine.cells", 64}, {"trace_store.misses", 8}};
    r.phases["replay.packed"] =
        obs::PhaseStat{1, 500u * (k + 1), 500u * (k + 1)};
    r.workers = {obs::WorkerStat{400, 16, 1}};
    if (k == 2) r.workers.push_back(obs::WorkerStat{100, 4, 1});
    r.shards = {obs::ShardStat{"s" + std::to_string(k),
                               1000u * (k + 1), 64, 0, 8}};
    parts.push_back(std::move(r));
  }
  const obs::RunReport fleet = obs::mergeFleet(parts);
  EXPECT_EQ(fleet.platform, "inorder-lru");
  EXPECT_EQ(fleet.wallNs, 3000u);  // critical path: slowest shard
  EXPECT_EQ(fleet.counter("engine.cells"), 192u);
  EXPECT_EQ(fleet.phases.at("replay.packed").count, 3u);
  EXPECT_EQ(fleet.phases.at("replay.packed").totalNs, 3000u);
  EXPECT_EQ(fleet.phases.at("replay.packed").maxNs, 1500u);
  ASSERT_EQ(fleet.workers.size(), 4u);  // every part's slots, in order
  EXPECT_EQ(fleet.workers[0].busyNs, 400u);
  EXPECT_EQ(fleet.workers[1].busyNs, 400u);
  EXPECT_EQ(fleet.workers[2].busyNs, 400u);
  EXPECT_EQ(fleet.workers[3].busyNs, 100u);
  ASSERT_EQ(fleet.shards.size(), 3u);
  // Round-trips as a report itself (merge output crosses processes too).
  EXPECT_EQ(obs::RunReport::deserialize(fleet.serialize()).serialize(),
            fleet.serialize());
}

TEST(MergeFleet, FullyBusyOneSlotShardsReadOneHundredPercentEach) {
  // Eight one-slot shard reports, each busy for its whole (equal) wall: the
  // fleet keeps eight slots, each 100% busy over the critical path.  Summing
  // slots across processes read 800% here.
  std::vector<obs::RunReport> parts(8);
  for (auto& r : parts) {
    r.wallNs = 5000;
    r.workers = {obs::WorkerStat{5000, 3, 1}};
  }
  const obs::RunReport fleet = obs::mergeFleet(parts);
  ASSERT_EQ(fleet.workers.size(), 8u);
  for (const auto& w : fleet.workers) {
    EXPECT_EQ(w.busyNs, fleet.wallNs);
  }
  const std::string text = fleet.text();
  EXPECT_NE(text.find("100.0%"), std::string::npos) << text;
  // No percentage in the rendering exceeds 100.
  for (std::size_t pos = text.find('%'); pos != std::string::npos;
       pos = text.find('%', pos + 1)) {
    std::size_t start = pos;
    while (start > 0 && (std::isdigit(static_cast<unsigned char>(
                             text[start - 1])) ||
                         text[start - 1] == '.')) {
      --start;
    }
    ASSERT_LT(start, pos) << text;
    EXPECT_LE(std::stod(text.substr(start, pos - start)), 100.0) << text;
  }
}

TEST(MergeFleet, MixedContextBecomesUnbound) {
  obs::RunReport a, b;
  a.platform = b.platform = "p";
  a.workload = "w1";
  b.workload = "w2";
  const auto fleet = obs::mergeFleet({a, b});
  EXPECT_EQ(fleet.platform, "p");
  EXPECT_EQ(fleet.workload, "-");
}

TEST(MergeFleet, EmptyInputThrows) {
  EXPECT_THROW(obs::mergeFleet({}), std::invalid_argument);
}

// ------------------------------------------------------ engine integration

TEST(EngineReport, CountersMatchTheLegacyAccessorShims) {
  const auto w = study::WorkloadRegistry::instance().make("bubblesort-8");
  exp::PlatformOptions opts;
  opts.numStates = 8;
  const auto model =
      exp::PlatformRegistry::instance().make("inorder-lru", w.program, opts);
  exp::EngineConfig cfg;
  cfg.threads = 1;
  exp::ExperimentEngine engine(cfg);

  const auto acc = engine.reduceCells(*model, w.program, w.inputs);
  (void)acc;
  engine.computeMatrix(*model, w.program, w.inputs);

  const obs::RunReport r = engine.report();
  EXPECT_EQ(r.counter("engine.matrix_builds"), engine.matrixBuilds());
  EXPECT_EQ(r.counter("engine.grid_walks"), engine.gridWalks());
  EXPECT_EQ(engine.matrixBuilds(), 1u);
  EXPECT_EQ(engine.gridWalks(), 2u);
  // The cells counter saw every cell of both walks.
  const std::uint64_t cells = static_cast<std::uint64_t>(
      model->numStates() * w.inputs.size());
  EXPECT_EQ(r.counter("engine.cells"), 2 * cells);
  EXPECT_GT(r.counter("engine.tiles"), 0u);
  // Trace-store counters ride along under the same namespace scheme.
  EXPECT_EQ(r.counter("trace_store.misses"), engine.traceStore().misses());
  EXPECT_EQ(r.counter("trace_store.entries"),
            static_cast<std::uint64_t>(engine.traceStore().size()));
  if (obs::compiledIn()) {
    EXPECT_GT(r.phases.at("replay.packed").count, 0u);
    EXPECT_GT(r.phases.at("resolve").count, 0u);
    ASSERT_EQ(r.workers.size(), 1u);  // threads=1: exactly worker 0
    EXPECT_GT(r.workers[0].items, 0u);
    EXPECT_GT(r.workers[0].participations, 0u);
  }
}

TEST(EngineReport, FindingCarriesThePerRunDelta) {
  exp::EngineConfig cfg;
  cfg.threads = 1;
  exp::ExperimentEngine engine(cfg);
  const auto query = study::Query()
                         .workload("bubblesort-8")
                         .platform("inorder-lru")
                         .mode(study::Exhaustive{});
  const auto f1 = query.run(engine);
  const auto f2 = query.run(engine);
  ASSERT_TRUE(f1.report.has_value());
  ASSERT_TRUE(f2.report.has_value());
  EXPECT_EQ(f1.report->platform, "inorder-lru");
  EXPECT_EQ(f1.report->workload, "bubblesort-8");
  // Deltas, not cumulative totals: each run sees its own single grid walk,
  // and the second run resolves no new traces (the store is warm).
  EXPECT_EQ(f1.report->counter("engine.grid_walks"), 1u);
  EXPECT_EQ(f2.report->counter("engine.grid_walks"), 1u);
  EXPECT_GT(f1.report->counter("trace_store.misses"), 0u);
  EXPECT_EQ(f2.report->counter("trace_store.misses"), 0u);
  EXPECT_EQ(f1.report->counter("engine.cells"),
            f2.report->counter("engine.cells"));
}

TEST(EngineReport, NormalizedReportIsByteStableAcrossIdenticalRuns) {
  const auto runOnce = [] {
    exp::EngineConfig cfg;
    cfg.threads = 1;  // single-threaded: even hit/miss splits are exact
    exp::ExperimentEngine engine(cfg);
    const auto f = study::Query()
                       .workload("bubblesort-8")
                       .platform("inorder-lru")
                       .mode(study::Exhaustive{})
                       .run(engine);
    return f.report->normalized().serialize();
  };
  EXPECT_EQ(runOnce(), runOnce());
}

TEST(EngineReport, ShardedRunAttachesPerShardStats) {
  // A grid planned into shards, each evaluated on one warm engine with its
  // self-report, and the reports folded by mergeFleet: the fold the grid
  // scheduler runs on every job.
  const auto w = study::WorkloadRegistry::instance().make("bubblesort-8");
  exp::ShardSpec whole;
  whole.platform = "inorder-lru";
  whole.workload = "bubblesort-8";
  whole.qEnd = exp::PlatformRegistry::instance()
                   .make(whole.platform, w.program, whole.options)
                   ->numStates();
  whole.iEnd = w.inputs.size();
  exp::EngineConfig cfg;
  cfg.threads = 1;
  exp::ExperimentEngine engine(cfg);
  const auto plan = exp::planShards(whole, 3);
  std::vector<obs::RunReport> parts;
  for (const auto& s : plan) {
    obs::RunReport r;
    exp::evaluateShard(engine, s, w.program, w.inputs,
                       exp::PlatformRegistry::instance(), &r);
    parts.push_back(std::move(r));
  }
  const obs::RunReport fleet = obs::mergeFleet(parts);
  ASSERT_EQ(fleet.shards.size(), 3u);
  std::uint64_t cells = 0;
  for (std::size_t k = 0; k < plan.size(); ++k) {
    EXPECT_EQ(fleet.shards[k].label, exp::shardLabel(plan[k]));
    cells += fleet.shards[k].cells;
  }
  EXPECT_EQ(cells, static_cast<std::uint64_t>(whole.qEnd * whole.iEnd));
  // The shards share the engine's store: the first resolves every input,
  // the later state bands only hit.
  EXPECT_EQ(fleet.counter("trace_store.misses"),
            engine.traceStore().misses());
  EXPECT_EQ(fleet.shards[1].traceMisses + fleet.shards[2].traceMisses, 0u);
  // Each shard's report shows only spans it ran: on the warm engine the
  // lifetime max of a phase must not leak into a later band's report.
  for (std::size_t k = 0; k < parts.size(); ++k) {
    for (const auto& [name, p] : parts[k].phases) {
      EXPECT_LE(p.maxNs, p.totalNs) << "shard " << k << " phase " << name;
      EXPECT_LE(p.totalNs, parts[k].wallNs)
          << "shard " << k << " phase " << name;
    }
  }
  // Its wire form is a valid report (labels are single tokens).
  EXPECT_NO_THROW(obs::RunReport::deserialize(fleet.serialize()));
}

TEST(EngineReport, EvaluateShardFillsTheSelfReport) {
  const auto w = study::WorkloadRegistry::instance().make("bubblesort-8");
  exp::ShardSpec spec;
  spec.platform = "inorder-lru";
  spec.workload = "bubblesort-8";
  spec.options.numStates = 8;
  spec.qBegin = 2;
  spec.qEnd = 6;
  spec.iBegin = 0;
  spec.iEnd = w.inputs.size();
  spec.engine.threads = 1;

  obs::RunReport report;
  const auto acc = exp::evaluateShard(spec, w.program, w.inputs,
                                      exp::PlatformRegistry::instance(),
                                      &report);
  (void)acc;
  EXPECT_EQ(report.platform, "inorder-lru");
  EXPECT_EQ(report.workload, "bubblesort-8");
  ASSERT_EQ(report.shards.size(), 1u);
  const auto& self = report.shards[0];
  EXPECT_EQ(self.label, exp::shardLabel(spec));
  EXPECT_EQ(self.cells, 4u * w.inputs.size());
  EXPECT_EQ(self.traceMisses, report.counter("trace_store.misses"));
  EXPECT_EQ(report.counter("engine.cells"), self.cells);

  // The accumulator is bit-identical with and without telemetry.
  const auto plain = exp::evaluateShard(spec, w.program, w.inputs);
  EXPECT_EQ(plain.serialize(), acc.serialize());
  // The fresh engine made its model, inside the report's wall time.
  EXPECT_EQ(report.counter("engine.model_cache.misses"), 1u);
  if (obs::compiledIn()) {
    ASSERT_EQ(report.phases.count("model.make"), 1u);
    EXPECT_EQ(report.phases.at("model.make").count, 1u);
    EXPECT_LE(report.phases.at("model.make").totalNs, report.wallNs);
  }

  // Two shards of one grid on one thread through the grid evaluator: the
  // cold one materializes the workload and makes the model, each phase
  // once and inside its wall time; the resident one builds neither.
  const auto eval = study::gridShardEvaluator();
  spec.options.seed = 4242;  // a grid no earlier test left resident here
  spec.qBegin = 0;
  spec.qEnd = 4;
  const grid::ShardOutput cold = eval(spec);
  spec.qBegin = 4;
  spec.qEnd = 8;
  const grid::ShardOutput warm = eval(spec);

  EXPECT_EQ(cold.report.counter("engine.model_cache.misses"), 1u);
  EXPECT_GT(cold.report.counter("trace_store.misses"), 0u);
  EXPECT_EQ(cold.report.counter("trace_store.misses") +
                cold.report.counter("trace_store.hits"),
            12u);
  EXPECT_EQ(warm.report.counter("engine.model_cache.hits"), 1u);
  EXPECT_EQ(warm.report.counter("engine.model_cache.misses"), 0u);
  EXPECT_EQ(warm.report.counter("trace_store.misses"), 0u);
  EXPECT_EQ(warm.report.shards.at(0).traceMisses, 0u);
  EXPECT_EQ(warm.report.shards.at(0).traceHits, 12u);
  for (const auto* r : {&cold.report, &warm.report}) {
    ASSERT_EQ(r->shards.size(), 1u);
    EXPECT_EQ(r->shards[0].wallNs, r->wallNs);
  }
  EXPECT_EQ(warm.report.phases.count("model.make"), 0u);
  EXPECT_EQ(warm.report.phases.count("setup.workload"), 0u);
  if (obs::compiledIn()) {
    std::uint64_t construction = 0;
    for (const char* phase : {"model.make", "setup.workload"}) {
      ASSERT_EQ(cold.report.phases.count(phase), 1u) << phase;
      EXPECT_EQ(cold.report.phases.at(phase).count, 1u) << phase;
      construction += cold.report.phases.at(phase).totalNs;
    }
    // The wall covers the whole call, construction included.
    EXPECT_GE(cold.report.wallNs, construction);
  }
  EXPECT_NO_THROW(obs::RunReport::deserialize(cold.report.serialize()));
}

}  // namespace
}  // namespace pred
