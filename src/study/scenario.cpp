#include "study/scenario.h"

#include <stdexcept>
#include <utility>

namespace pred::study {

void ScenarioSuite::addWorkload(std::string name, isa::Program program,
                                std::vector<isa::Input> inputs) {
  workloads_decl_.push_back(WorkloadDecl{std::move(name), false,
                                         std::move(program),
                                         std::move(inputs)});
}

void ScenarioSuite::addWorkload(const std::string& registryName) {
  if (workloads_->find(registryName) == nullptr) {
    throw std::invalid_argument("unknown workload: " + registryName);
  }
  workloads_decl_.push_back(WorkloadDecl{registryName, true, {}, {}});
}

void ScenarioSuite::addPlatform(std::string platformName,
                                exp::PlatformOptions options) {
  if (platforms_->find(platformName) == nullptr) {
    throw std::invalid_argument("unknown platform: " + platformName);
  }
  platforms_decl_.push_back(PlatformDecl{std::move(platformName), options});
}

std::vector<ScenarioResult> ScenarioSuite::run(
    exp::ExperimentEngine& engine) const {
  // Dense matrices are per-query by design; keep that on the query path.
  if (keepMatrices_) return runSequential(engine);

  // Materialize every workload once (registry ones included), then build
  // the workload-major cell list: one (model, program, inputs) grid per
  // scenario, every platform's model taken from the engine's model cache
  // for its row's program (made on the engine's first run, shared on every
  // later one) and held here for the whole batch.
  std::vector<WorkloadInstance> instances;
  instances.reserve(workloads_decl_.size());
  for (const auto& w : workloads_decl_) {
    instances.push_back(w.fromRegistry
                            ? workloads_->make(w.name)
                            : WorkloadInstance{w.program, w.inputs});
  }
  std::vector<std::shared_ptr<const exp::TimingModel>> models;
  std::vector<exp::ExperimentEngine::GridSpec> grids;
  models.reserve(numScenarios());
  grids.reserve(numScenarios());
  for (const auto& inst : instances) {
    for (const auto& p : platforms_decl_) {
      models.push_back(
          engine.model(*platforms_, p.name, inst.program, p.options));
      grids.push_back(exp::ExperimentEngine::GridSpec{
          models.back().get(), &inst.program, &inst.inputs});
    }
  }

  // ONE pool pass over the union of all grids' cells, then assemble each
  // cell's Finding exactly as the sequential query path would (shared
  // detail::streamingFinding; scenario queries are always exhaustive,
  // full-domain, default-measure — the streaming shape).
  const auto accs = engine.reduceCellsBatch(grids);
  const std::vector<Measure> measures = {Measure::Pr, Measure::SIPr,
                                         Measure::IIPr};
  std::vector<ScenarioResult> results;
  results.reserve(numScenarios());
  std::size_t cell = 0;
  for (std::size_t wi = 0; wi < workloads_decl_.size(); ++wi) {
    for (const auto& p : platforms_decl_) {
      results.push_back(detail::streamingFinding(
          workloads_decl_[wi].name, p.name, *grids[cell].model,
          instances[wi].inputs.size(), core::EvalMode::Exhaustive, measures,
          accs[cell]));
      ++cell;
    }
  }
  return results;
}

std::vector<ScenarioResult> ScenarioSuite::runSequential(
    exp::ExperimentEngine& engine) const {
  std::vector<ScenarioResult> results;
  results.reserve(numScenarios());
  for (const auto& w : workloads_decl_) {
    // One query per workload: runAll materializes the workload once and
    // shares it across every platform of the row.
    Query q(*workloads_, *platforms_);
    if (w.fromRegistry) {
      q.workload(w.name);
    } else {
      q.workload(w.name, w.program, w.inputs);
    }
    for (const auto& p : platforms_decl_) q.platform(p.name, p.options);
    q.keepMatrix(keepMatrices_);
    auto row = q.runAll(engine);
    for (auto& f : row.findings) results.push_back(std::move(f));
  }
  return results;
}

std::string ScenarioSuite::table(const std::vector<ScenarioResult>& results) {
  return StudyReport::table(results);
}

std::string ScenarioSuite::csv(const std::vector<ScenarioResult>& results) {
  return StudyReport::csv(results);
}

std::string ScenarioSuite::json(const std::vector<ScenarioResult>& results) {
  return StudyReport::json(results);
}

}  // namespace pred::study
