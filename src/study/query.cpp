#include "study/query.h"

#include <algorithm>
#include <cctype>
#include <stdexcept>
#include <utility>

#include "analysis/wcet_bounds.h"
#include "isa/cfg.h"

namespace pred::study {

namespace {

/// Throws unless every index of `sub` lies below `n`.
void checkSubset(const std::vector<std::size_t>& sub, std::size_t n,
                 const char* axis) {
  for (const auto k : sub) {
    if (k >= n) {
      throw std::invalid_argument(std::string("uncertainty subset index ") +
                                  std::to_string(k) + " out of range for " +
                                  axis + " axis of size " +
                                  std::to_string(n));
    }
  }
}

/// A half-open index range [first, second) of one axis.
using Run = std::pair<std::size_t, std::size_t>;

/// The runs of consecutive indices in `sub`, sorted, repeats dropped; the
/// whole axis [0, n) when `sub` is empty.
std::vector<Run> runsOf(std::vector<std::size_t> sub, std::size_t n) {
  if (sub.empty()) return {{0, n}};
  std::sort(sub.begin(), sub.end());
  std::vector<Run> runs;
  for (const auto k : sub) {
    if (runs.empty() || k > runs.back().second) {
      runs.emplace_back(k, k + 1);
    } else {
      runs.back().second = k + 1;  // extends the run, or repeats its end
    }
  }
  return runs;
}

/// The fields every evaluation path of one workload × platform cell fills
/// identically (names, shape, mode, state labels).
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

}  // namespace

namespace detail {

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
  delta.wallNs = detail::elapsedNs(start);
  delta.platform = detail::reportLabel(platformName);
  delta.workload = detail::reportLabel(spec_.workload);
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
    Finding f = findingHeader(spec_.workload, platformName, *model,
                              w.inputs.size(), spec_.mode);
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

  // Every exhaustive Finding is read off one accumulator.  A subset is
  // walked as the rectangles its runs of consecutive indices span, merged
  // the way shards merge, so witnesses are the smallest attaining indices
  // whatever the order of the subset lists.  keepMatrix feeds the same
  // rectangles from the kept matrix instead of walking them again.
  std::optional<core::TimingMatrix> matrix;
  if (keepMatrix_) matrix = engine.computeMatrix(*model, w.program, w.inputs);
  const auto rect = [&](Run qr, Run ir) {
    if (!matrix) {
      return engine.reduceCellsRange(*model, w.program, w.inputs, qr.first,
                                     qr.second, ir.first, ir.second);
    }
    core::StreamingMeasures acc(matrix->numStates(), matrix->numInputs());
    for (std::size_t q = qr.first; q < qr.second; ++q) {
      for (std::size_t i = ir.first; i < ir.second; ++i) {
        acc.add(q, i, matrix->at(q, i));
      }
    }
    return acc;
  };
  std::vector<core::StreamingMeasures> parts;
  for (const auto& qr : runsOf(spec_.stateSubset, model->numStates())) {
    for (const auto& ir : runsOf(spec_.inputSubset, w.inputs.size())) {
      parts.push_back(rect(qr, ir));
    }
  }
  Finding f = detail::streamingFinding(
      spec_.workload, platformName, *model, w.inputs.size(), spec_.mode,
      measures_, exp::ExperimentEngine::mergeShards(std::move(parts)));
  attachBounds(f, w, platformName, options);
  f.matrix = std::move(matrix);
  return f;
}

void Query::attachBounds(Finding& f, const WorkloadInstance& w,
                         const std::string& platformName,
                         const exp::PlatformOptions& options) const {
  if (spec_.mode != core::EvalMode::AnalysisBounds) return;
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
  requireRunnable(engine, w);
  return runOne(engine, w, spec_.platforms[0], optionsFor(0));
}

StudyReport Query::runAll(exp::ExperimentEngine& engine) const {
  if (spec_.platforms.empty()) {
    throw std::invalid_argument("query has no platform bound");
  }
  // The workload is materialized once and shared across every platform.
  std::optional<WorkloadInstance> storage;
  const auto& w = resolveWorkload(storage);
  requireRunnable(engine, w);
  StudyReport report;
  report.findings.reserve(spec_.platforms.size());
  for (std::size_t k = 0; k < spec_.platforms.size(); ++k) {
    report.findings.push_back(
        runOne(engine, w, spec_.platforms[k], optionsFor(k)));
  }
  return report;
}

void Query::requireRunnable(exp::ExperimentEngine& engine,
                            const WorkloadInstance& w) const {
  const bool restricted =
      !spec_.stateSubset.empty() || !spec_.inputSubset.empty();
  if (spec_.mode == core::EvalMode::Sampled) {
    if (restricted) {
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
  } else if (spec_.mode == core::EvalMode::AnalysisBounds) {
    // The static bound analyses model the cached in-order pipeline with LRU
    // must/may classification; other platforms have no sound bounds here.
    for (const auto& p : spec_.platforms) {
      if (p != "inorder-lru" && p != "inorder-lru-icache") {
        throw std::invalid_argument(
            "AnalysisBounds mode models the inorder-lru / "
            "inorder-lru-icache platforms only, not " + p);
      }
    }
  }
  if (!restricted) return;
  checkSubset(spec_.inputSubset, w.inputs.size(), "input");
  if (spec_.stateSubset.empty()) return;
  // |Q| is the model's (presets may clamp numStates), so the check makes
  // each model; evalOne then takes it from the engine's model cache.
  for (std::size_t k = 0; k < spec_.platforms.size(); ++k) {
    const auto model =
        engine.model(*platforms_, spec_.platforms[k], w.program, optionsFor(k));
    checkSubset(spec_.stateSubset, model->numStates(), "state");
  }
}

void Query::requireShardable() const {
  if (keepMatrix_) {
    throw std::invalid_argument(
        "sharded runs are streaming-only; drop keepMatrix");
  }
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
