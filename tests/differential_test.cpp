// differential_test.cpp — The harness that gates every replay fast path:
// seeded-random structured programs and inputs, crossed with EVERY
// PlatformRegistry preset, asserting that the packed-replay path reproduces
// the interpreted walk bit-identically — cell for cell on the timing
// matrix, and witness for witness on the derived measures (Pr/SIPr/IIPr
// cross-checked between the packed streaming reduction and the core::
// matrix evaluators over the interpreted matrix).
//
// This is the confidence substrate the ROADMAP's scaling steps lean on: a
// fast path (today: the in-order stream replay and the OOO kernel replay,
// including the ooo-preschedule drain mode and the stall-skip of
// pipeline/ooo_kernel.h; tomorrow: whatever comes next) ships only behind
// this harness.  Presets without a packed path run through it too — there
// the two engines take the same legacy route and the assertion is a
// tautology, which is exactly what makes the sweep future-proof: a model
// that GAINS a fast path later is already covered the day it flips
// supportsPackedReplay().

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "cache/geometry.h"
#include "core/definitions.h"
#include "core/measures.h"
#include "exp/engine.h"
#include "exp/platform.h"
#include "isa/ast.h"
#include "isa/exec.h"
#include "isa/workloads.h"
#include "witness_expect.h"

namespace pred {
namespace {

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
  return in;
}

/// One full differential sweep of a (program, inputs) pair over every
/// registry preset with the given options: packed matrix == interpreted
/// matrix cell-for-cell, and packed streaming measures == interpreted
/// matrix evaluators value- and witness-for-witness.
void sweepAllPresets(const isa::Program& prog,
                     const std::vector<isa::Input>& inputs,
                     exp::PlatformOptions opts, const std::string& tag) {
  for (const auto& name : exp::PlatformRegistry::instance().names()) {
    const std::string label = tag + "/" + name;
    const auto model =
        exp::PlatformRegistry::instance().make(name, prog, opts);

    // Odd tile shapes so tiles straddle the grid edges both ways.
    exp::EngineConfig interpCfg{2, 3, 5};
    interpCfg.usePackedReplay = false;
    exp::EngineConfig packedCfg{2, 3, 5};
    exp::ExperimentEngine interp(interpCfg);
    exp::ExperimentEngine packed(packedCfg);

    const auto mi = interp.computeMatrix(*model, prog, inputs);
    const auto mp = packed.computeMatrix(*model, prog, inputs);
    ASSERT_TRUE(mi == mp) << label << ": packed matrix diverges";

    const auto acc = packed.reduceCells(*model, prog, inputs);
    EXPECT_EQ(acc.bcet(), mi.bcet()) << label;
    EXPECT_EQ(acc.wcet(), mi.wcet()) << label;
    expectSamePredictabilityValue(acc.pr(), core::timingPredictability(mi),
                                  label + "/Pr");
    expectSamePredictabilityValue(acc.sipr(),
                                  core::stateInducedPredictability(mi),
                                  label + "/SIPr");
    expectSamePredictabilityValue(acc.iipr(),
                                  core::inputInducedPredictability(mi),
                                  label + "/IIPr");
  }
}

/// Collapse differential: the same sweep shape as sweepAllPresets, but
/// pitting collapseTraceClasses on vs off over an input set with
/// deliberately duplicated (and trace-equal-but-distinct) inputs.  The
/// comparison is identicalTo — the COMPLETE accumulator state, every
/// per-axis extreme and witness index, not just the derived measures — on
/// both the packed and interpreted paths and on the one-walk batch path,
/// plus a witness-for-witness cross-check against the matrix evaluators.
/// On the packed path of every preset in `statesRepeat`, the state axis
/// must collapse too: fewer model evaluations than (state, class) cells.
void sweepCollapseAllPresets(const isa::Program& prog,
                             const std::vector<isa::Input>& inputs,
                             exp::PlatformOptions opts,
                             const std::string& tag,
                             const std::set<std::string>& statesRepeat = {}) {
  for (const auto& name : exp::PlatformRegistry::instance().names()) {
    const std::string label = tag + "/" + name;
    const auto model =
        exp::PlatformRegistry::instance().make(name, prog, opts);

    for (const bool packed : {false, true}) {
      exp::EngineConfig offCfg{2, 3, 5};
      offCfg.usePackedReplay = packed;
      offCfg.collapseTraceClasses = false;
      exp::EngineConfig onCfg{2, 3, 5};
      onCfg.usePackedReplay = packed;
      onCfg.collapseTraceClasses = true;
      exp::ExperimentEngine off(offCfg);
      exp::ExperimentEngine on(onCfg);

      const auto accOff = off.reduceCells(*model, prog, inputs);
      const auto accOn = on.reduceCells(*model, prog, inputs);
      ASSERT_TRUE(accOn.identicalTo(accOff))
          << label << (packed ? "/packed" : "/interp")
          << ": collapsed accumulator diverges";
      // The duplicated inputs guarantee collapse actually engaged — a
      // silently inert dedup must fail here, not just run slower.
      EXPECT_GT(on.metrics().counter("engine.cells_collapsed").value(), 0u)
          << label;
      EXPECT_LT(on.metrics().counter("engine.trace_classes").value(),
                static_cast<std::uint64_t>(inputs.size()))
          << label;
      // Every group of every column replays once; a silently inert state
      // key must fail here too.
      const std::uint64_t walked = on.metrics().counter("engine.cells").value();
      const std::uint64_t replayed =
          on.metrics().counter("engine.cells_replayed").value();
      EXPECT_EQ(on.metrics().counter("engine.state_groups").value(), replayed)
          << label;
      if (packed && statesRepeat.count(name) != 0) {
        EXPECT_LT(replayed, walked) << label << ": state collapse inert";
      } else if (!packed) {
        EXPECT_EQ(replayed, walked) << label;
      }

      // The one-walk batch path collapses identically too.
      const exp::ExperimentEngine::GridSpec spec{model.get(), &prog,
                                                 &inputs};
      const auto batchOn = on.reduceCellsBatch({spec});
      ASSERT_EQ(batchOn.size(), 1u);
      EXPECT_TRUE(batchOn[0].identicalTo(accOff))
          << label << (packed ? "/packed" : "/interp")
          << ": collapsed batch diverges";
    }

    // Tie the collapsed streaming result to the matrix-evaluator ground
    // truth, witness for witness.
    exp::EngineConfig interpCfg{2, 3, 5};
    interpCfg.usePackedReplay = false;
    interpCfg.collapseTraceClasses = false;
    exp::ExperimentEngine interp(interpCfg);
    exp::ExperimentEngine collapsed(exp::EngineConfig{2, 3, 5});
    const auto mi = interp.computeMatrix(*model, prog, inputs);
    const auto acc = collapsed.reduceCells(*model, prog, inputs);
    expectSamePredictabilityValue(acc.pr(), core::timingPredictability(mi),
                                  label + "/collapsed-Pr");
    expectSamePredictabilityValue(acc.sipr(),
                                  core::stateInducedPredictability(mi),
                                  label + "/collapsed-SIPr");
    expectSamePredictabilityValue(acc.iipr(),
                                  core::inputInducedPredictability(mi),
                                  label + "/collapsed-IIPr");
  }
}

class PackedDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PackedDifferential, AllPresetsBitIdenticalOnRandomPrograms) {
  const auto seed = GetParam();
  const auto prog =
      isa::ast::compileBranchy(isa::workloads::randomAst(seed));
  std::vector<isa::Input> inputs;
  for (std::uint64_t k = 1; k <= 5; ++k) {
    inputs.push_back(inputFor(prog, seed * 1000 + k));
  }
  exp::PlatformOptions opts;
  opts.numStates = 5;
  sweepAllPresets(prog, inputs, opts, "seed" + std::to_string(seed));
}

TEST_P(PackedDifferential, AllPresetsBitIdenticalOnNonPow2Geometry) {
  // lineWords=3, numSets=5 forces the division (non-shift) address path of
  // the packed sims; ways=2 keeps every policy packable.
  const auto seed = GetParam();
  const auto prog =
      isa::ast::compileBranchy(isa::workloads::randomAst(seed));
  std::vector<isa::Input> inputs;
  for (std::uint64_t k = 1; k <= 3; ++k) {
    inputs.push_back(inputFor(prog, seed * 77 + k));
  }
  exp::PlatformOptions opts;
  opts.numStates = 4;
  opts.dataGeom = cache::CacheGeometry{3, 5, 2};
  opts.instrGeom = cache::CacheGeometry{3, 7, 2};
  sweepAllPresets(prog, inputs, opts, "np2-seed" + std::to_string(seed));
}

TEST_P(PackedDifferential, CollapseBitIdenticalOnDuplicateHeavyGrids) {
  const auto seed = GetParam();
  const auto prog =
      isa::ast::compileBranchy(isa::workloads::randomAst(seed));
  std::vector<isa::Input> inputs;
  for (std::uint64_t k = 1; k <= 4; ++k) {
    inputs.push_back(inputFor(prog, seed * 31 + k));
  }
  // Deliberate duplicates: a renamed exact copy (shares the trace-store
  // entry), a variant with one never-read scratch word (distinct entry,
  // identical trace), and a plain repeat — so every sweep has strictly
  // fewer trace classes than inputs.
  isa::Input renamed = inputs[0];
  renamed.name = "dup-of-0";
  inputs.push_back(std::move(renamed));
  isa::Input scratch = inputs[1];
  scratch.mem[prog.layout.memWords - 3] = 7;
  scratch.name = "scratch-of-1";
  inputs.push_back(std::move(scratch));
  inputs.push_back(inputs[2]);

  exp::PlatformOptions opts;
  opts.numStates = 4;
  sweepCollapseAllPresets(prog, inputs, opts,
                          "dup-seed" + std::to_string(seed));
  // At 64 states the enumerated states repeat, so every preset that keys
  // its states must replay fewer cells than it walks.
  opts.numStates = 64;
  sweepCollapseAllPresets(prog, inputs, opts,
                          "dup64-seed" + std::to_string(seed),
                          {"inorder-lru", "inorder-fifo", "inorder-plru",
                           "inorder-lru-icache", "ooo-lru", "ooo-fifo"});
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackedDifferential,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

TEST(PackedDifferential, OooPresetsReportPackedReplaySupport) {
  // The acceptance bit of this PR: the OOO platforms joined the fast path.
  const auto prog =
      isa::ast::compileBranchy(isa::workloads::randomAst(1));
  exp::PlatformOptions opts;
  opts.numStates = 4;
  for (const char* name :
       {"ooo-fifo", "ooo-lru", "ooo-fixedlat", "ooo-preschedule"}) {
    const auto model =
        exp::PlatformRegistry::instance().make(name, prog, opts);
    EXPECT_TRUE(model->supportsPackedReplay()) << name;
  }
  // Unpackable geometry still falls back gracefully on the cached OOO
  // models (ways beyond the packed metadata word).
  opts.dataGeom = cache::CacheGeometry{4, 2, 17};
  const auto wide =
      exp::PlatformRegistry::instance().make("ooo-fifo", prog, opts);
  EXPECT_FALSE(wide->supportsPackedReplay());
  const std::vector<isa::Input> inputs = {inputFor(prog, 9)};
  exp::ExperimentEngine engine;
  exp::EngineConfig serialCfg{1};
  serialCfg.usePackedReplay = false;
  exp::ExperimentEngine reference(serialCfg);
  EXPECT_TRUE(engine.computeMatrix(*wide, prog, inputs) ==
              reference.computeMatrix(*wide, prog, inputs));
}

TEST(PackedDifferential, PrescheduleDrainModeMatchesAcrossManyOccupancies) {
  // The drainBefore_ preschedule mode is the subtlest kernel path (drain
  // stalls interact with the stall-skip); pin it across the full occupancy
  // enumeration rather than the default |Q| clamp.
  const auto prog =
      isa::ast::compileBranchy(isa::workloads::randomAst(21));
  std::vector<isa::Input> inputs;
  for (std::uint64_t k = 1; k <= 4; ++k) {
    inputs.push_back(inputFor(prog, 2100 + k));
  }
  exp::PlatformOptions opts;
  opts.numStates = 15;  // every enumerated (iu0, iu1, lsu) residue
  const auto model =
      exp::PlatformRegistry::instance().make("ooo-preschedule", prog, opts);
  ASSERT_TRUE(model->supportsPackedReplay());
  exp::EngineConfig interpCfg{1};
  interpCfg.usePackedReplay = false;
  exp::ExperimentEngine interp(interpCfg);
  exp::ExperimentEngine packed;
  EXPECT_TRUE(interp.computeMatrix(*model, prog, inputs) ==
              packed.computeMatrix(*model, prog, inputs));
}

}  // namespace
}  // namespace pred
