// query-cold: a fresh ExperimentEngine (threads=1) per op, then Query::run
// for Pr, SIPr and IIPr in Exhaustive mode on inorder-lru with 64 states,
// over an inline linear-search-16 program and 64 seeded arrays (key 7).
// The trace store starts empty every op, so resolve does almost all of the
// work and replay a small share.

#include <optional>

#include "bench.h"
#include "study/query.h"

namespace perfbench {
namespace {

constexpr int kPool = 16;
constexpr int kInputs = 64;
constexpr const char* kPlatform = "inorder-lru";
constexpr const char* kLabel = "linearsearch-16";
const std::vector<study::Measure> kMeasures = {
    study::Measure::Pr, study::Measure::SIPr, study::Measure::IIPr};

exp::EngineConfig opEngine() {
  exp::EngineConfig c;
  c.threads = 1;
  return c;
}

class QueryCold final : public Workload {
 public:
  explicit QueryCold(std::uint64_t seed) : program_(linearSearchProgram()) {
    options_.numStates = 64;
    exp::ExperimentEngine oracle(oracleConfig());
    sets_.reserve(kPool);
    for (int j = 0; j < kPool; ++j) {
      Set s;
      s.inputs = arrayInputs(program_, 16, kInputs,
                             mixSeed(seed, 1, static_cast<std::uint64_t>(j)),
                             64, 7);
      const auto model = exp::PlatformRegistry::instance().make(
          kPlatform, program_, options_);
      s.ref = referenceOf(oracle, *model, program_, s.inputs);
      s.query.workload(kLabel, program_, s.inputs)
          .platform(kPlatform, options_)
          .measures(kMeasures)
          .mode(study::Exhaustive{});
      sets_.push_back(std::move(s));
    }
    // Warm-up: page in the code paths once per pool set.
    for (std::uint64_t k = 0; k < kPool; ++k) {
      if (!op(k).ok) throw std::runtime_error("query-cold warm-up mismatch");
    }
  }

  OpOutcome op(std::uint64_t k) override {
    const Set& s = sets_[k % kPool];
    exp::ExperimentEngine engine(opEngine());
    return {matches(s.query.run(engine), s.ref), false};
  }

  OpOutcome tracedOp(std::uint64_t k, SpanLog& log,
                     LayerSamples& samples) override {
    const Set& s = sets_[k % kPool];
    std::optional<exp::ExperimentEngine> engine;
    std::unique_ptr<exp::TimingModel> model;
    std::optional<core::StreamingMeasures> acc;
    study::Finding f;
    int resolveSpan = -1, reduceSpan = -1;
    {
      // The public calls Query::run makes, in its order.
      ScopedSpan root(log, "op", k);
      const int parent = root.index();
      engine.emplace(opEngine());
      obs::RunReport before;
      {
        ScopedSpan sp(log, "obs.report", k, parent);
        before = engine->report();
      }
      {
        ScopedSpan sp(log, "exp.platform.make", k, parent);
        model = exp::PlatformRegistry::instance().make(kPlatform, program_,
                                                       options_);
      }
      {
        ScopedSpan sp(log, "exp.trace_store.resolve", k, parent);
        resolveSpan = sp.index();
        for (const auto& in : s.inputs) {
          engine->traceStore().entryRefFor(program_, in);
        }
      }
      {
        ScopedSpan sp(log, "exp.engine.reduce", k, parent);
        reduceSpan = sp.index();
        acc.emplace(engine->reduceCells(*model, program_, s.inputs));
      }
      {
        ScopedSpan sp(log, "study.finding", k, parent);
        f = study::detail::streamingFinding(
            kLabel, kPlatform, *model, s.inputs.size(),
            core::EvalMode::Exhaustive, kMeasures, *acc);
      }
      {
        ScopedSpan sp(log, "obs.report", k, parent);
        f.report = engine->report().deltaSince(before);
      }
    }
    bool ok = matches(f, s.ref);

    const obs::RunReport r = engine->report();
    const double cells =
        static_cast<double>(model->numStates() * s.inputs.size());
    const double misses = static_cast<double>(r.counter("trace_store.misses"));
    samples["exp.trace_store.misses"].push_back(misses);
    samples["exp.trace_store.hits"].push_back(
        static_cast<double>(r.counter("trace_store.hits")));
    samples["exp.trace_store.classes"].push_back(
        static_cast<double>(r.counter("trace_store.classes")));
    samples["exp.engine.cells"].push_back(
        static_cast<double>(r.counter("engine.cells")));
    samples["exp.engine.cells_collapsed"].push_back(
        static_cast<double>(r.counter("engine.cells_collapsed")));
    samples["exp.engine.grid_walks"].push_back(
        static_cast<double>(r.counter("engine.grid_walks")));
    samples["exp.engine.collapse_ratio"].push_back(
        static_cast<double>(r.counter("engine.cells_collapsed")) / cells);
    samples["exp.replay.inorder-lru.ns_per_cell"].push_back(
        spanMs(log, reduceSpan) * 1e6 / cells);
    std::uint64_t busy = 0;
    for (const auto& w : r.workers) busy += w.busyNs;
    samples["exp.worker_pool.busy_ratio"].push_back(
        static_cast<double>(busy) / 1e6 / spanMs(log, reduceSpan) /
        engine->resolvedThreads());

    const double attributed = attributeResolve(log, k, program_, s.inputs);
    samples["exp.trace_store.lookup_overhead_ms"].push_back(
        spanMs(log, resolveSpan) -
        attributed * misses / static_cast<double>(s.inputs.size()));
    ok = codecProbe(log, k, *acc) && ok;
    return {ok, false};
  }

 private:
  struct Set {
    std::vector<isa::Input> inputs;
    Reference ref;
    study::Query query;
  };

  isa::Program program_;
  exp::PlatformOptions options_;
  std::vector<Set> sets_;
};

}  // namespace

std::unique_ptr<Workload> makeQueryCold(std::uint64_t seed) {
  return std::make_unique<QueryCold>(seed);
}

}  // namespace perfbench
