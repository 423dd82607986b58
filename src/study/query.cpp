#include "study/query.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "analysis/wcet_bounds.h"
#include "isa/cfg.h"
#include "obs/span.h"

namespace pred::study {

namespace {

/// 0..n-1 when `sub` is empty; otherwise `sub` validated against n.
std::vector<std::size_t> effectiveSubset(const std::vector<std::size_t>& sub,
                                         std::size_t n, const char* axis) {
  if (sub.empty()) {
    std::vector<std::size_t> all(n);
    for (std::size_t k = 0; k < n; ++k) all[k] = k;
    return all;
  }
  for (const auto k : sub) {
    if (k >= n) {
      throw std::invalid_argument(std::string("uncertainty subset index ") +
                                  std::to_string(k) + " out of range for " +
                                  axis + " axis of size " +
                                  std::to_string(n));
    }
  }
  return sub;
}

/// RunReport labels are single wire tokens; registry names already are, but
/// inline workload labels are free-form — map whitespace to '_'.
std::string reportLabel(const std::string& s) {
  if (s.empty()) return "-";
  std::string out = s;
  for (char& c : out) {
    if (std::isspace(static_cast<unsigned char>(c))) c = '_';
  }
  return out;
}

std::uint64_t elapsedNs(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

namespace detail {

Finding findingHeader(const std::string& workload,
                      const std::string& platform,
                      const exp::TimingModel& model, std::size_t numInputs,
                      core::EvalMode mode) {
  Finding f;
  f.workload = workload;
  f.platform = platform;
  f.numStates = model.numStates();
  f.numInputs = numInputs;
  f.mode = mode;
  f.stateLabels.reserve(model.numStates());
  for (std::size_t q = 0; q < model.numStates(); ++q) {
    f.stateLabels.push_back(model.stateLabel(q));
  }
  return f;
}

Finding streamingFinding(const std::string& workload,
                         const std::string& platform,
                         const exp::TimingModel& model,
                         std::size_t numInputs, core::EvalMode mode,
                         const std::vector<Measure>& measures,
                         const core::StreamingMeasures& acc) {
  Finding f = findingHeader(workload, platform, model, numInputs, mode);
  f.bcet = acc.bcet();
  f.wcet = acc.wcet();
  for (const auto m : measures) {
    switch (m) {
      case Measure::Pr:
        f.pr = acc.pr();
        break;
      case Measure::SIPr:
        f.sipr = acc.sipr();
        break;
      case Measure::IIPr:
        f.iipr = acc.iipr();
        break;
    }
  }
  f.requested = measures;
  f.provenance = core::Inherence::Exhaustive;
  return f;
}

}  // namespace detail

Query::Query(const WorkloadRegistry& workloads,
             const exp::PlatformRegistry& platforms)
    : workloads_(&workloads), platforms_(&platforms) {}

Query& Query::workload(std::string name) {
  if (workloads_->find(name) == nullptr) {
    throw std::invalid_argument("unknown workload: " + name);
  }
  spec_.workload = std::move(name);
  inlineWorkload_.reset();
  return *this;
}

Query& Query::workload(std::string label, isa::Program program,
                       std::vector<isa::Input> inputs) {
  if (inputs.empty()) {
    throw std::invalid_argument("inline workload needs at least one input");
  }
  spec_.workload = std::move(label);
  inlineWorkload_ = WorkloadInstance{std::move(program), std::move(inputs)};
  return *this;
}

Query& Query::platform(std::string name) {
  if (platforms_->find(name) == nullptr) {
    throw std::invalid_argument("unknown platform: " + name);
  }
  spec_.platforms.push_back(std::move(name));
  platformOptions_.emplace_back();
  return *this;
}

Query& Query::platform(std::string name, exp::PlatformOptions options) {
  platform(std::move(name));
  platformOptions_.back() = options;
  spec_.numStates = options.numStates;  // keep the declarative form in step
  return *this;
}

Query& Query::options(exp::PlatformOptions options) {
  defaultOptions_ = options;
  spec_.numStates = options.numStates;
  return *this;
}

Query& Query::measures(std::vector<Measure> ms) {
  if (ms.empty()) {
    throw std::invalid_argument("a query needs at least one measure");
  }
  measures_ = std::move(ms);
  measuresExplicit_ = true;
  return *this;
}

Query& Query::uncertainty(std::vector<std::size_t> stateSubset,
                          std::vector<std::size_t> inputSubset) {
  spec_.stateSubset = std::move(stateSubset);
  spec_.inputSubset = std::move(inputSubset);
  return *this;
}

Query& Query::mode(Exhaustive) {
  spec_.mode = core::EvalMode::Exhaustive;
  return *this;
}

Query& Query::mode(Sampled s) {
  if (s.samples == 0) {
    throw std::invalid_argument("Sampled mode requires samples > 0");
  }
  spec_.mode = core::EvalMode::Sampled;
  spec_.samples = s.samples;
  spec_.seed = s.seed;
  return *this;
}

Query& Query::mode(AnalysisBounds) {
  spec_.mode = core::EvalMode::AnalysisBounds;
  return *this;
}

Query& Query::property(core::Property p) {
  spec_.property = p;
  return *this;
}

Query& Query::sources(std::vector<core::Uncertainty> us) {
  spec_.uncertainties = std::move(us);
  return *this;
}

Query& Query::measureKind(core::MeasureKind m) {
  spec_.measure = m;
  return *this;
}

Query& Query::keepMatrix(bool keep) {
  keepMatrix_ = keep;
  return *this;
}

exp::PlatformOptions Query::optionsFor(std::size_t platformIndex) const {
  if (platformIndex < platformOptions_.size() &&
      platformOptions_[platformIndex]) {
    return *platformOptions_[platformIndex];
  }
  if (defaultOptions_) return *defaultOptions_;
  exp::PlatformOptions o;
  o.numStates = spec_.numStates;
  return o;
}

const WorkloadInstance& Query::resolveWorkload(
    std::optional<WorkloadInstance>& storage) const {
  if (inlineWorkload_) return *inlineWorkload_;
  if (spec_.workload.empty()) {
    throw std::invalid_argument("query has no workload bound");
  }
  storage = workloads_->make(spec_.workload);
  return *storage;
}

Finding Query::runOne(exp::ExperimentEngine& engine,
                      const WorkloadInstance& w,
                      const std::string& platformName,
                      const exp::PlatformOptions& options) const {
  // Snapshot-delta: the engine's metrics are cumulative across its
  // lifetime, so the per-run view is (after - before).
  const obs::RunReport before = engine.report();
  const auto start = std::chrono::steady_clock::now();
  Finding f = evalOne(engine, w, platformName, options);
  obs::RunReport delta = engine.report().deltaSince(before);
  delta.wallNs = elapsedNs(start);
  delta.platform = reportLabel(platformName);
  delta.workload = reportLabel(spec_.workload);
  f.report = std::move(delta);
  return f;
}

Finding Query::evalOne(exp::ExperimentEngine& engine,
                       const WorkloadInstance& w,
                       const std::string& platformName,
                       const exp::PlatformOptions& options) const {
  const auto model =
      engine.model(*platforms_, platformName, w.program, options);

  if (spec_.mode == core::EvalMode::Sampled) {
    Finding f = detail::findingHeader(spec_.workload, platformName, *model,
                                      w.inputs.size(), spec_.mode);
    if (!spec_.stateSubset.empty() || !spec_.inputSubset.empty()) {
      throw std::invalid_argument(
          "uncertainty subsets apply to exhaustive modes only");
    }
    if (measuresExplicit_ &&
        measures_ != std::vector<Measure>{Measure::Pr}) {
      throw std::invalid_argument(
          "Sampled mode evaluates Pr only (Def. 3); SIPr/IIPr need the "
          "exhaustive matrix");
    }
    if (keepMatrix_) {
      throw std::invalid_argument(
          "Sampled mode never materializes the matrix; drop keepMatrix or "
          "use an exhaustive mode");
    }
    // Traces are memoized once; sampling then draws (q, i) cells lazily
    // without materializing the full matrix.
    std::vector<const isa::Trace*> traces;
    traces.reserve(w.inputs.size());
    const exp::TraceStore::ProgramKey program(w.program);
    for (const auto& in : w.inputs) {
      traces.push_back(engine.traceStore()
                           .entryRefFor(program, in, exp::ReplayForm::None)
                           .trace);
    }
    const auto fn = [&](std::size_t q, std::size_t i) {
      return model->time(q, *traces[i]);
    };
    f.pr = core::sampledTimingPredictability(fn, model->numStates(),
                                             w.inputs.size(), spec_.samples,
                                             spec_.seed);
    f.provenance = core::Inherence::Sampled;
    f.requested = {Measure::Pr};
    f.bcet = f.pr.minTime;
    f.wcet = f.pr.maxTime;
    return f;
  }

  const bool restricted =
      !spec_.stateSubset.empty() || !spec_.inputSubset.empty();

  if (!restricted && !keepMatrix_) {
    // Streaming path: the engine folds cells into online accumulators and
    // never materializes the |Q| x |I| matrix (bit-identical to the matrix
    // evaluators, witnesses included — asserted in tests).
    const auto acc = engine.reduceCells(*model, w.program, w.inputs);
    Finding f =
        detail::streamingFinding(spec_.workload, platformName, *model,
                                 w.inputs.size(), spec_.mode, measures_, acc);
    attachBounds(f, w, platformName, options);
    return f;
  }

  Finding f = detail::findingHeader(spec_.workload, platformName, *model,
                                    w.inputs.size(), spec_.mode);
  auto matrix = engine.computeMatrix(*model, w.program, w.inputs);

  if (restricted) {
    const auto qs =
        effectiveSubset(spec_.stateSubset, matrix.numStates(), "state");
    const auto is =
        effectiveSubset(spec_.inputSubset, matrix.numInputs(), "input");
    f.bcet = ~core::Cycles{0};
    f.wcet = 0;
    for (const auto q : qs) {
      for (const auto i : is) {
        const auto t = matrix.at(q, i);
        f.bcet = std::min(f.bcet, t);
        f.wcet = std::max(f.wcet, t);
      }
    }
    for (const auto m : measures_) {
      switch (m) {
        case Measure::Pr:
          f.pr = core::timingPredictability(matrix, qs, is);
          break;
        case Measure::SIPr:
          f.sipr = core::stateInducedPredictability(matrix, qs, is);
          break;
        case Measure::IIPr:
          f.iipr = core::inputInducedPredictability(matrix, qs, is);
          break;
      }
    }
  } else {
    f.bcet = matrix.bcet();
    f.wcet = matrix.wcet();
    for (const auto m : measures_) {
      switch (m) {
        case Measure::Pr:
          f.pr = core::timingPredictability(matrix);
          break;
        case Measure::SIPr:
          f.sipr = core::stateInducedPredictability(matrix);
          break;
        case Measure::IIPr:
          f.iipr = core::inputInducedPredictability(matrix);
          break;
      }
    }
  }
  f.requested = measures_;
  f.provenance = core::Inherence::Exhaustive;
  attachBounds(f, w, platformName, options);

  if (keepMatrix_) f.matrix = std::move(matrix);
  return f;
}

void Query::attachBounds(Finding& f, const WorkloadInstance& w,
                         const std::string& platformName,
                         const exp::PlatformOptions& options) const {
  if (spec_.mode != core::EvalMode::AnalysisBounds) return;
  // The static bound analyses model the cached in-order pipeline with LRU
  // must/may classification; other platforms have no sound bounds here.
  if (platformName != "inorder-lru" && platformName != "inorder-lru-icache") {
    throw std::invalid_argument(
        "AnalysisBounds mode models the inorder-lru / inorder-lru-icache "
        "platforms only, not " + platformName);
  }
  analysis::BoundsInputs bi;
  bi.pipeConfig = options.inorder;
  bi.dataCacheGeom = options.dataGeom;
  bi.cacheTiming = options.dataTiming;
  if (platformName == "inorder-lru-icache") {
    bi.instrCacheGeom = options.instrGeom;
    bi.instrTiming = options.instrTiming;
  }
  isa::Cfg cfg(w.program);
  f.bounds = analysis::figure1Decomposition(cfg, bi, f.bcet, f.wcet);
}

Finding Query::run(exp::ExperimentEngine& engine) const {
  if (spec_.platforms.size() != 1) {
    throw std::invalid_argument(
        "Query::run needs exactly one platform (got " +
        std::to_string(spec_.platforms.size()) + "); use runAll for grids");
  }
  std::optional<WorkloadInstance> storage;
  const auto& w = resolveWorkload(storage);
  return runOne(engine, w, spec_.platforms[0], optionsFor(0));
}

StudyReport Query::runAll(exp::ExperimentEngine& engine) const {
  if (spec_.platforms.empty()) {
    throw std::invalid_argument("query has no platform bound");
  }
  // The workload is materialized once and shared across every platform.
  std::optional<WorkloadInstance> storage;
  const auto& w = resolveWorkload(storage);
  StudyReport report;
  report.findings.reserve(spec_.platforms.size());
  for (std::size_t k = 0; k < spec_.platforms.size(); ++k) {
    report.findings.push_back(
        runOne(engine, w, spec_.platforms[k], optionsFor(k)));
  }
  return report;
}

void Query::requireShardable() const {
  if (inlineWorkload_) {
    throw std::invalid_argument(
        "sharding needs a registry workload: an inline program cannot be "
        "resolved by name in a worker process");
  }
  if (spec_.workload.empty()) {
    throw std::invalid_argument("query has no workload bound");
  }
  if (spec_.platforms.size() != 1) {
    throw std::invalid_argument(
        "sharding needs exactly one platform (got " +
        std::to_string(spec_.platforms.size()) + ")");
  }
  if (spec_.mode != core::EvalMode::Exhaustive) {
    throw std::invalid_argument(
        "sharding applies to Exhaustive mode only (the accumulators being "
        "merged are the exhaustive streaming reduction)");
  }
  if (!spec_.stateSubset.empty() || !spec_.inputSubset.empty()) {
    throw std::invalid_argument(
        "sharding quantifies over the full enumerated axes; drop the "
        "uncertainty subsets");
  }
}

exp::ShardSpec Query::wholeGridSpec(const WorkloadInstance& w,
                                    const exp::TimingModel& model,
                                    const exp::PlatformOptions& options,
                                    exp::EngineConfig workerEngine) const {
  // The grid shape comes from the instantiated axes: |Q| from the model
  // (presets may clamp the requested numStates), |I| from the workload.
  exp::ShardSpec whole;
  whole.platform = spec_.platforms[0];
  whole.workload = spec_.workload;
  whole.options = options;
  whole.qEnd = model.numStates();
  whole.iEnd = w.inputs.size();
  whole.engine = workerEngine;
  return whole;
}

std::vector<exp::ShardSpec> Query::shardPlan(
    std::size_t shards, exp::EngineConfig workerEngine) const {
  requireShardable();
  const auto w = workloads_->make(spec_.workload);
  const auto options = optionsFor(0);
  const auto model = platforms_->make(spec_.platforms[0], w.program, options);
  return exp::planShards(wholeGridSpec(w, *model, options, workerEngine),
                         shards);
}

Finding Query::runSharded(exp::ExperimentEngine& engine,
                          std::size_t shards) const {
  if (keepMatrix_) {
    throw std::invalid_argument(
        "sharded runs are streaming-only; drop keepMatrix");
  }
  requireShardable();
  // Workload, options, and model are instantiated ONCE and shared by the
  // plan and every shard evaluation.
  const auto w = workloads_->make(spec_.workload);
  const auto options = optionsFor(0);
  const auto model = platforms_->make(spec_.platforms[0], w.program, options);
  const auto plan = exp::planShards(
      wholeGridSpec(w, *model, options, engine.config()), shards);
  // In-process fan-out through the caller's engine, so every shard shares
  // the memoized trace store; the worker binary evaluates the same specs
  // with evaluateShard in separate processes.
  const obs::RunReport before = engine.report();
  const auto runStart = std::chrono::steady_clock::now();
  std::vector<core::StreamingMeasures> parts;
  std::vector<obs::ShardStat> stats;
  parts.reserve(plan.size());
  stats.reserve(plan.size());
  for (const auto& s : plan) {
    // Per-shard attribution via store-counter deltas: shards sharing one
    // store means later shards mostly hit what earlier ones computed.
    const std::uint64_t h0 = engine.traceStore().hits();
    const std::uint64_t m0 = engine.traceStore().misses();
    const auto t0 = std::chrono::steady_clock::now();
    parts.push_back(engine.reduceCellsRange(*model, w.program, w.inputs,
                                            s.qBegin, s.qEnd, s.iBegin,
                                            s.iEnd));
    obs::ShardStat st;
    st.label = exp::shardLabel(s);
    st.wallNs = elapsedNs(t0);
    st.cells = (s.qEnd - s.qBegin) * (s.iEnd - s.iBegin);
    st.traceHits = engine.traceStore().hits() - h0;
    st.traceMisses = engine.traceStore().misses() - m0;
    stats.push_back(std::move(st));
  }
  const auto acc = [&] {
    obs::Span span(&engine.metrics().phase("shard.merge"));
    return exp::ExperimentEngine::mergeShards(std::move(parts));
  }();
  Finding f = detail::streamingFinding(spec_.workload, spec_.platforms[0],
                                       *model, w.inputs.size(), spec_.mode,
                                       measures_, acc);
  obs::RunReport delta = engine.report().deltaSince(before);
  delta.wallNs = elapsedNs(runStart);
  delta.platform = reportLabel(spec_.platforms[0]);
  delta.workload = reportLabel(spec_.workload);
  delta.shards = std::move(stats);
  f.report = std::move(delta);
  return f;
}

Query compile(const core::QuerySpec& spec, const WorkloadRegistry& workloads,
              const exp::PlatformRegistry& platforms) {
  if (spec.workload.empty() || spec.platforms.empty()) {
    throw std::invalid_argument(
        "QuerySpec is declarative-only (no workload/platform binding)");
  }
  Query q(workloads, platforms);
  q.workload(spec.workload);
  for (const auto& p : spec.platforms) q.platform(p);
  q.property(spec.property);
  q.sources(spec.uncertainties);
  q.measureKind(spec.measure);
  switch (spec.mode) {
    case core::EvalMode::Exhaustive:
      q.mode(Exhaustive{});
      break;
    case core::EvalMode::Sampled:
      q.mode(Sampled{spec.samples, spec.seed});
      break;
    case core::EvalMode::AnalysisBounds:
      q.mode(AnalysisBounds{});
      break;
  }
  q.uncertainty(spec.stateSubset, spec.inputSubset);
  exp::PlatformOptions o;
  o.numStates = spec.numStates;
  q.options(o);
  return q;
}

}  // namespace pred::study
