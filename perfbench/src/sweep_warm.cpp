// sweep-warm: ScenarioSuite::run on one long-lived engine (threads=2) over
// {linear-search-16 x 64 seeded arrays, bubble-sort-8 x 64 seeded arrays}
// x {inorder-lru, ooo-fifo with a 64-set x 4-way data cache}, 256 states
// each.  After warm-up every trace is memoized, so the replay kernels,
// tiled walk, trace-class collapse and per-worker merge do the work.

#include <memory>

#include "bench.h"
#include "study/scenario.h"

namespace perfbench {
namespace {

constexpr int kPool = 4;
constexpr int kInputs = 64;
const std::vector<study::Measure> kMeasures = {
    study::Measure::Pr, study::Measure::SIPr, study::Measure::IIPr};

struct PlatformDecl {
  const char* name;
  exp::PlatformOptions options;
};

std::vector<PlatformDecl> platforms() {
  exp::PlatformOptions inorder;
  inorder.numStates = 256;
  exp::PlatformOptions ooo;
  ooo.numStates = 256;
  ooo.dataGeom = cache::CacheGeometry{4, 64, 4};
  return {{"inorder-lru", inorder}, {"ooo-fifo", ooo}};
}

exp::EngineConfig sweepEngine() {
  exp::EngineConfig c;
  c.threads = 2;
  return c;
}

class SweepWarm final : public Workload {
 public:
  explicit SweepWarm(std::uint64_t seed)
      : platforms_(platforms()), engine_(sweepEngine()) {
    const isa::Program ls = linearSearchProgram();
    const isa::Program bs = bubbleSortProgram();
    exp::ExperimentEngine oracle(oracleConfig());
    suites_.reserve(kPool);
    for (int j = 0; j < kPool; ++j) {
      const auto u = static_cast<std::uint64_t>(j);
      Suite s;
      s.workloads.push_back(
          {"linearsearch-16", ls,
           arrayInputs(ls, 16, kInputs, mixSeed(seed, 2, u), 64, 7)});
      s.workloads.push_back({"bubblesort-8", bs,
                             arrayInputs(bs, 8, kInputs, mixSeed(seed, 3, u),
                                         24)});
      for (const auto& w : s.workloads) {
        s.suite.addWorkload(w.name, w.program, w.inputs);
      }
      for (const auto& p : platforms_) {
        s.suite.addPlatform(p.name, p.options);
      }
      for (const auto& w : s.workloads) {
        for (const auto& p : platforms_) {
          const auto model = exp::PlatformRegistry::instance().make(
              p.name, w.program, p.options);
          s.refs.push_back(referenceOf(oracle, *model, w.program, w.inputs));
        }
      }
      suites_.push_back(std::move(s));
    }
    // Warm-up: one run per suite memoizes every trace in the engine.
    for (std::uint64_t k = 0; k < kPool; ++k) {
      if (!op(k).ok) throw std::runtime_error("sweep-warm warm-up mismatch");
    }
  }

  OpOutcome op(std::uint64_t k) override {
    const Suite& s = suites_[k % kPool];
    return {allMatch(s.suite.run(engine_), s), false};
  }

  OpOutcome tracedOp(std::uint64_t k, SpanLog& log,
                     LayerSamples& samples) override {
    const Suite& s = suites_[k % kPool];
    const obs::RunReport before = engine_.report();
    std::vector<std::unique_ptr<exp::TimingModel>> models;
    std::vector<exp::ExperimentEngine::GridSpec> grids;
    std::vector<core::StreamingMeasures> accs;
    std::vector<study::Finding> findings;
    int batchSpan = -1, resolveSpan = -1;
    {
      // The public calls ScenarioSuite::run makes, plus an explicit store
      // resolve that shows what warm lookups cost.
      ScopedSpan root(log, "op", k);
      const int parent = root.index();
      {
        ScopedSpan sp(log, "exp.platform.make", k, parent);
        for (const auto& w : s.workloads) {
          for (const auto& p : platforms_) {
            models.push_back(exp::PlatformRegistry::instance().make(
                p.name, w.program, p.options));
            grids.push_back({models.back().get(), &w.program, &w.inputs});
          }
        }
      }
      {
        ScopedSpan sp(log, "exp.trace_store.resolve", k, parent);
        resolveSpan = sp.index();
        for (const auto& w : s.workloads) {
          for (const auto& in : w.inputs) {
            engine_.traceStore().entryRefFor(w.program, in);
          }
        }
      }
      {
        ScopedSpan sp(log, "exp.engine.reduce_batch", k, parent);
        batchSpan = sp.index();
        accs = engine_.reduceCellsBatch(grids);
      }
      {
        ScopedSpan sp(log, "study.finding", k, parent);
        std::size_t cell = 0;
        for (const auto& w : s.workloads) {
          for (const auto& p : platforms_) {
            findings.push_back(study::detail::streamingFinding(
                w.name, p.name, *grids[cell].model, w.inputs.size(),
                core::EvalMode::Exhaustive, kMeasures, accs[cell]));
            ++cell;
          }
        }
      }
    }
    bool ok = allMatch(findings, s);

    const obs::RunReport d = engine_.report().deltaSince(before);
    double gridCells = 0;
    for (const auto& g : grids) {
      gridCells += static_cast<double>(g.model->numStates() * g.inputs->size());
    }
    const double misses = static_cast<double>(d.counter("trace_store.misses"));
    samples["exp.trace_store.misses"].push_back(misses);
    samples["exp.trace_store.hits"].push_back(
        static_cast<double>(d.counter("trace_store.hits")));
    samples["exp.trace_store.classes"].push_back(
        static_cast<double>(engine_.traceStore().classCount()));
    samples["exp.engine.cells"].push_back(
        static_cast<double>(d.counter("engine.cells")));
    samples["exp.engine.cells_collapsed"].push_back(
        static_cast<double>(d.counter("engine.cells_collapsed")));
    samples["exp.engine.grid_walks"].push_back(
        static_cast<double>(d.counter("engine.grid_walks")));
    samples["exp.engine.collapse_ratio"].push_back(
        static_cast<double>(d.counter("engine.cells_collapsed")) / gridCells);
    std::uint64_t busy = 0;
    for (const auto& w : d.workers) busy += w.busyNs;
    samples["exp.worker_pool.busy_ratio"].push_back(
        static_cast<double>(busy) / 1e6 / spanMs(log, batchSpan) /
        engine_.resolvedThreads());

    // Per-platform replay cost: one reduceCells per grid on the warm store.
    {
      ScopedSpan root(log, "probe", k);
      std::map<std::string, std::pair<double, double>> perPlatform;
      for (std::size_t g = 0; g < grids.size(); ++g) {
        const int sp = log.begin("exp.engine.reduce", k, root.index());
        const auto acc = engine_.reduceCells(*grids[g].model,
                                             *grids[g].program,
                                             *grids[g].inputs);
        log.end(sp);
        ok = ok && acc.serialize() == accs[g].serialize();
        auto& [ns, cells] = perPlatform[grids[g].model->name()];
        ns += spanMs(log, sp) * 1e6;
        cells += static_cast<double>(grids[g].model->numStates() *
                                     grids[g].inputs->size());
      }
      for (const auto& [name, v] : perPlatform) {
        samples["exp.replay." + name + ".ns_per_cell"].push_back(v.first /
                                                                 v.second);
      }
    }

    double attributed = 0;
    std::size_t lookups = 0;
    for (const auto& w : s.workloads) {
      attributed += attributeResolve(log, k, w.program, w.inputs);
      lookups += w.inputs.size();
    }
    samples["exp.trace_store.lookup_overhead_ms"].push_back(
        spanMs(log, resolveSpan) -
        attributed * misses / static_cast<double>(lookups));
    ok = codecProbe(log, k, accs.front()) && ok;
    return {ok, false};
  }

 private:
  struct WorkloadDecl {
    std::string name;
    isa::Program program;
    std::vector<isa::Input> inputs;
  };
  struct Suite {
    std::vector<WorkloadDecl> workloads;
    study::ScenarioSuite suite;
    std::vector<Reference> refs;  ///< workload-major, like run()'s results
  };

  static bool allMatch(const std::vector<study::Finding>& findings,
                       const Suite& s) {
    if (findings.size() != s.refs.size()) return false;
    for (std::size_t c = 0; c < findings.size(); ++c) {
      if (!matches(findings[c], s.refs[c])) return false;
    }
    return true;
  }

  std::vector<PlatformDecl> platforms_;
  exp::ExperimentEngine engine_;
  std::vector<Suite> suites_;
};

}  // namespace

std::unique_ptr<Workload> makeSweepWarm(std::uint64_t seed) {
  return std::make_unique<SweepWarm>(seed);
}

}  // namespace perfbench
