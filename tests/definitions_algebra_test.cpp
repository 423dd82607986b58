// definitions_algebra_test.cpp — Definitions 3–5 checked against their own
// algebra, on seeded random programs, for every PlatformRegistry preset and
// every streaming path of the engine (reduceCells, one reduceCellsBatch
// walk over all presets, and reduceCellsRange shards merged with
// mergeShards):
//
//   - Pr = BCET/WCET exactly, with BCET/WCET equal to a full oracle scan;
//   - SIPr·IIPr ≤ Pr ≤ min(SIPr, IIPr).  The upper bound holds because SIPr
//     and IIPr minimize over subsets of Pr's quotients; the lower bound
//     because T(q1,i1)/T(q2,i2) = T(q1,i1)/T(q2,i1) · T(q2,i1)/T(q2,i2), a
//     same-input quotient times a same-state quotient;
//   - every witness attains its value: T is recomputed at the witness
//     indices by an oracle that shares no walker or trace-store code (a
//     fresh functional run replayed through the model's time());
//   - SIPr witnesses share an input and IIPr witnesses share a state;
//   - restricting a Query to a state or input subset never lowers any of
//     the three measures, and gives the core:: subset evaluators' values
//     and witnesses over the uncollapsed computeMatrix.  A subset query
//     walks one rectangle per run of consecutive indices, so this is the
//     differential check of both collapses inside a rectangle.
//
// One input is a renamed duplicate of another, so trace-class collapse
// engages on every streaming path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/definitions.h"
#include "core/measures.h"
#include "exp/engine.h"
#include "exp/platform.h"
#include "isa/ast.h"
#include "isa/exec.h"
#include "isa/workloads.h"
#include "study/query.h"
#include "witness_expect.h"

namespace pred {
namespace {

constexpr double kSlack = 1e-12;

/// Random but reproducible inputs for the variables every randomAst program
/// declares (x0..x3 scalars and the 8-element array a).
isa::Input inputFor(const isa::Program& p, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  isa::Input in;
  for (int k = 0; k < 4; ++k) {
    in = isa::mergeInputs(
        in, isa::varInput(p, "x" + std::to_string(k),
                          static_cast<std::int64_t>(rng() % 32) - 8));
  }
  const auto base = p.variables.at("a");
  for (int k = 0; k < 8; ++k) {
    in.mem[base + k] = static_cast<std::int64_t>(rng() % 64) - 16;
  }
  in.name = "in" + std::to_string(seed);
  return in;
}

/// A seeded random program, five random inputs, and a renamed copy of
/// input 0 appended last.
struct System {
  isa::Program prog;
  std::vector<isa::Input> inputs;
  exp::PlatformOptions opts;
};

System randomSystem(std::uint64_t seed) {
  System s;
  s.prog = isa::ast::compileBranchy(isa::workloads::randomAst(seed));
  for (std::uint64_t k = 1; k <= 5; ++k) {
    s.inputs.push_back(inputFor(s.prog, seed * 100 + k));
  }
  isa::Input dup = s.inputs[0];
  dup.name = "dup-of-0";
  s.inputs.push_back(std::move(dup));
  s.opts.numStates = 5;
  return s;
}

/// The oracle's traces: one fresh functional run per input, outside the
/// engine and its trace store.
std::vector<isa::Trace> freshTraces(const System& s) {
  std::vector<isa::Trace> traces;
  for (const auto& in : s.inputs) {
    traces.push_back(isa::FunctionalCore::run(s.prog, in).trace);
  }
  return traces;
}

void expectAlgebra(const core::StreamingMeasures& acc,
                   const exp::TimingModel& model,
                   const std::vector<isa::Trace>& traces,
                   const std::string& label) {
  SCOPED_TRACE(label);
  // T(q, i) replayed through the model's reference evaluator.
  const auto T = [&](std::size_t q, std::size_t i) {
    return model.time(q, traces.at(i));
  };
  core::Cycles lo = ~core::Cycles{0}, hi = 0;
  for (std::size_t q = 0; q < acc.numStates(); ++q) {
    for (std::size_t i = 0; i < acc.numInputs(); ++i) {
      lo = std::min(lo, T(q, i));
      hi = std::max(hi, T(q, i));
    }
  }
  EXPECT_EQ(acc.bcet(), lo);
  EXPECT_EQ(acc.wcet(), hi);

  const auto pr = acc.pr();
  const auto sipr = acc.sipr();
  const auto iipr = acc.iipr();
  EXPECT_EQ(pr.value, static_cast<double>(acc.bcet()) /
                          static_cast<double>(acc.wcet()));
  EXPECT_LE(sipr.value * iipr.value, pr.value + kSlack);
  EXPECT_LE(pr.value, std::min(sipr.value, iipr.value) + kSlack);

  const std::pair<const char*, const core::PredictabilityValue*> measures[] =
      {{"Pr", &pr}, {"SIPr", &sipr}, {"IIPr", &iipr}};
  for (const auto& [name, v] : measures) {
    EXPECT_EQ(T(v->q1, v->i1), v->minTime) << name;
    EXPECT_EQ(T(v->q2, v->i2), v->maxTime) << name;
    EXPECT_EQ(v->value, static_cast<double>(v->minTime) /
                            static_cast<double>(v->maxTime))
        << name;
  }
  EXPECT_EQ(sipr.i1, sipr.i2) << "SIPr witnesses must share an input";
  EXPECT_EQ(iipr.q1, iipr.q2) << "IIPr witnesses must share a state";
}

/// reduceCellsRange over a 2x2 split of the grid (one band where an axis
/// has a single entry), merged with mergeShards.  The split puts input 0
/// and its duplicate in different shards.
core::StreamingMeasures shardedReduce(exp::ExperimentEngine& engine,
                                      const exp::TimingModel& model,
                                      const System& s) {
  const std::size_t nQ = model.numStates();
  const std::size_t nI = s.inputs.size();
  const std::size_t qCuts[] = {0, (nQ + 1) / 2, nQ};
  const std::size_t iCuts[] = {0, nI / 2, nI};
  std::vector<core::StreamingMeasures> shards;
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      if (qCuts[a] == qCuts[a + 1] || iCuts[b] == iCuts[b + 1]) continue;
      shards.push_back(engine.reduceCellsRange(model, s.prog, s.inputs,
                                               qCuts[a], qCuts[a + 1],
                                               iCuts[b], iCuts[b + 1]));
    }
  }
  return exp::ExperimentEngine::mergeShards(std::move(shards));
}

class DefinitionAlgebra : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DefinitionAlgebra, HoldsOnEveryPresetAndStreamingPath) {
  const auto s = randomSystem(GetParam());
  const auto traces = freshTraces(s);
  const auto names = exp::PlatformRegistry::instance().names();
  std::vector<std::unique_ptr<exp::TimingModel>> models;
  std::vector<exp::ExperimentEngine::GridSpec> grids;
  for (const auto& name : names) {
    models.push_back(
        exp::PlatformRegistry::instance().make(name, s.prog, s.opts));
    grids.push_back({models.back().get(), &s.prog, &s.inputs});
  }

  // Odd tile shapes so tiles straddle the grid edges both ways.
  exp::ExperimentEngine engine(exp::EngineConfig{2, 3, 5});
  const auto batch = engine.reduceCellsBatch(grids);
  ASSERT_EQ(batch.size(), names.size());
  for (std::size_t g = 0; g < names.size(); ++g) {
    const auto& model = *models[g];
    expectAlgebra(engine.reduceCells(model, s.prog, s.inputs), model, traces,
                  names[g] + "/reduceCells");
    expectAlgebra(batch[g], model, traces, names[g] + "/reduceCellsBatch");
    expectAlgebra(shardedReduce(engine, model, s), model, traces,
                  names[g] + "/mergeShards");
  }
  // The duplicated input made collapse engage.
  EXPECT_GT(engine.metrics().counter("engine.cells_collapsed").value(), 0u);
}

TEST_P(DefinitionAlgebra, UncertaintySubsetsNeverLowerAMeasure) {
  const auto s = randomSystem(GetParam());
  exp::ExperimentEngine engine;
  for (const auto& name : exp::PlatformRegistry::instance().names()) {
    const auto base = study::Query()
                          .workload("random", s.prog, s.inputs)
                          .platform(name, s.opts)
                          .mode(study::Exhaustive{});
    const auto full = base.run(engine);
    const auto model =
        exp::PlatformRegistry::instance().make(name, s.prog, s.opts);
    const auto matrix = engine.computeMatrix(*model, s.prog, s.inputs);
    // The oracle's domain: the subset as a sorted set, or the whole axis.
    const auto domain = [](std::vector<std::size_t> sub, std::size_t n) {
      if (sub.empty()) {
        sub.resize(n);
        std::iota(sub.begin(), sub.end(), std::size_t{0});
      }
      std::sort(sub.begin(), sub.end());
      sub.erase(std::unique(sub.begin(), sub.end()), sub.end());
      return sub;
    };
    std::vector<std::size_t> evenStates, oddInputs;
    for (std::size_t q = 0; q < full.numStates; q += 2) {
      evenStates.push_back(q);
    }
    for (std::size_t i = 1; i < full.numInputs; i += 2) {
      oddInputs.push_back(i);
    }
    // Unsorted, with a repeat, and runs longer than one index.
    std::vector<std::size_t> lastAndLowStates{full.numStates - 1};
    for (std::size_t q = 0; q < (full.numStates + 1) / 2; ++q) {
      lastAndLowStates.push_back(q);
    }
    const std::pair<std::vector<std::size_t>, std::vector<std::size_t>>
        subsets[] = {{evenStates, {}},
                     {{}, oddInputs},
                     {{full.numStates - 1}, {0, full.numInputs - 1}},
                     {lastAndLowStates, {full.numInputs - 1, 0, 1, 1}}};
    for (const auto& [qs, is] : subsets) {
      auto restricted = base;
      const auto sub = restricted.uncertainty(qs, is).run(engine);
      EXPECT_GE(sub.pr.value, full.pr.value) << name;
      EXPECT_GE(sub.sipr.value, full.sipr.value) << name;
      EXPECT_GE(sub.iipr.value, full.iipr.value) << name;

      const auto qDomain = domain(qs, full.numStates);
      const auto iDomain = domain(is, full.numInputs);
      const auto pr = core::timingPredictability(matrix, qDomain, iDomain);
      EXPECT_EQ(sub.bcet, pr.minTime) << name;
      EXPECT_EQ(sub.wcet, pr.maxTime) << name;
      expectSamePredictabilityValue(sub.pr, pr, name + " Pr");
      expectSamePredictabilityValue(
          sub.sipr, core::stateInducedPredictability(matrix, qDomain, iDomain),
          name + " SIPr");
      expectSamePredictabilityValue(
          sub.iipr, core::inputInducedPredictability(matrix, qDomain, iDomain),
          name + " IIPr");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DefinitionAlgebra,
                         ::testing::Values(1u, 4u, 9u, 16u));

}  // namespace
}  // namespace pred
