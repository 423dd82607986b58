#include "study/distributed.h"

#include <chrono>
#include <memory>
#include <string>
#include <utility>

#include "exp/shard.h"
#include "grid/client.h"
#include "obs/span.h"
#include "study/query.h"

namespace pred::study {

namespace {

/// What a thread keeps of the grid it evaluated last.
struct ResidentGrid {
  ResidentGrid(std::string k, const exp::EngineConfig& config)
      : key(std::move(k)), engine(config) {}
  std::string key;
  WorkloadInstance workload;
  exp::ExperimentEngine engine;
};

/// Everything in `spec` except its ranges, plus both registries' ids.
std::string residentKey(const WorkloadRegistry& workloads,
                        const exp::PlatformRegistry& platforms,
                        exp::ShardSpec spec) {
  spec.qBegin = spec.qEnd = spec.iBegin = spec.iEnd = 0;
  return std::to_string(workloads.id()) + " " +
         std::to_string(platforms.id()) + "\n" +
         exp::serializeShardSpec(spec);
}

}  // namespace

grid::ShardEvalFn gridShardEvaluator(const WorkloadRegistry& workloads,
                                     const exp::PlatformRegistry& platforms) {
  return [&workloads, &platforms](const exp::ShardSpec& spec) {
    // Shared by every evaluator that runs on this thread; the key's
    // registry ids keep evaluators over different registries apart.
    thread_local std::unique_ptr<ResidentGrid> resident;
    const auto start = std::chrono::steady_clock::now();
    std::string key = residentKey(workloads, platforms, spec);
    // The thread holds no grid while the call runs, so a throw leaves none.
    std::unique_ptr<ResidentGrid> held = std::move(resident);
    obs::PhaseAccum setup;
    if (held == nullptr || held->key != key) {
      held.reset();  // drop the old grid before building the new one
      held = std::make_unique<ResidentGrid>(std::move(key), spec.engine);
      obs::Span span(&setup);
      held->workload = workloads.make(spec.workload);
    }
    obs::RunReport report;
    core::StreamingMeasures acc = exp::evaluateShard(
        held->engine, spec, held->workload.program, held->workload.inputs,
        platforms, &report);
    resident = std::move(held);
    if (setup.count() > 0) {
      report.phases["setup.workload"] =
          obs::PhaseStat{setup.count(), setup.totalNs(), setup.maxNs()};
    }
    report.wallNs = detail::elapsedNs(start);
    report.shards.front().wallNs = report.wallNs;
    return grid::ShardOutput{std::move(acc), std::move(report)};
  };
}

Finding Query::runDistributed(grid::GridClient& client, std::size_t shards,
                              bool useCache) const {
  requireShardable();
  // The local instantiation shapes the Finding (|Q|, state labels) and the
  // whole-grid spec: |Q| from the model (presets may clamp the requested
  // numStates), |I| from the workload.  The evaluation happens server-side.
  const auto w = workloads_->make(spec_.workload);
  exp::ShardSpec whole;
  whole.platform = spec_.platforms[0];
  whole.workload = spec_.workload;
  whole.options = optionsFor(0);
  const auto model = platforms_->make(whole.platform, w.program, whole.options);
  whole.qEnd = model->numStates();
  whole.iEnd = w.inputs.size();
  const auto start = std::chrono::steady_clock::now();
  grid::JobResult result = client.submit(whole, shards, useCache);
  Finding f = detail::streamingFinding(spec_.workload, whole.platform, *model,
                                       w.inputs.size(), spec_.mode,
                                       measures_, result.measures);
  obs::RunReport report;
  report.platform = detail::reportLabel(whole.platform);
  report.workload = detail::reportLabel(spec_.workload);
  report.wallNs = detail::elapsedNs(start);
  report.counters["grid.cache.hit"] = result.cacheHit ? 1 : 0;
  f.report = std::move(report);
  return f;
}

Finding Query::runDistributed(const std::string& endpoint,
                              std::size_t shards, bool useCache) const {
  grid::GridClient client(endpoint);
  return runDistributed(client, shards, useCache);
}

}  // namespace pred::study
