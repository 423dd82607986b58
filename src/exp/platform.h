#pragma once
// platform.h — Platforms: named hardware compositions behind one timing
// interface.
//
// Definition 2's T_p(q, i) is parameterized by a *system* — a pipeline, a
// memory hierarchy, a branch predictor, co-runner threads.  The seed benches
// each hand-wired their own composition; a Platform packages one composition
// as a factory that, given a program, produces a TimingModel: an enumerated
// hardware-state set Q plus a thread-safe evaluator of T(q, trace).  The
// PlatformRegistry names the compositions (presets like "inorder-lru",
// "ooo-fifo", "pret", "smt-rr") so experiments, scenario grids, and tests
// select hardware by string — the config-driven "analysis over a platform
// context" shape of the OTAWA-style drivers.
//
// Thread-safety contract: TimingModel::time(q, trace) must be callable
// concurrently from many threads (the ExperimentEngine does exactly that).
// Models therefore treat their enumerated states as immutable snapshots and
// build fresh mutable hardware (cache copies, predictor clones, pipeline
// objects) per call.
//
// Key contract (the engine's state-axis collapse, exp/engine.h): a model
// may offer TimingModel::observableKey, an exact key of the part of a
// state one trace class can observe.  Two states with equal keys must
// replay every trace of that class's footprint to equal times; a key may
// be finer than that, never coarser.  Declining is always correct — it
// only costs replays.  InOrderSnapshotModel keys its caches' projections
// (cache::PackedCacheState::project), OooModel adds its occupancy triple;
// RANDOM caches, predictors, PRET slots and SMT contexts decline.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cache/geometry.h"
#include "cache/packed.h"
#include "cache/policy.h"
#include "cache/set_assoc.h"
#include "core/template.h"
#include "exp/replay.h"
#include "isa/exec.h"
#include "isa/program.h"
#include "pipeline/inorder.h"
#include "pipeline/ooo.h"
#include "pipeline/pret.h"
#include "pipeline/smt.h"

namespace pred::exp {

using core::Cycles;  // one shared cycle type, no shadow definition

/// An exact key of the part of a hardware state one trace class can
/// observe (TimingModel::observableKey), prepared once per class.
class ObservableKey {
 public:
  virtual ~ObservableKey() = default;
  /// Appends state q's key to `key`.  Allocates nothing beyond the growth
  /// of `key`, which callers reuse.
  virtual void append(std::size_t q, std::vector<std::int64_t>& key) const = 0;
};

/// One system instantiated for one program: an enumerated hardware-state
/// set Q and the timing evaluator over it.
class TimingModel {
 public:
  virtual ~TimingModel() = default;

  virtual std::string name() const = 0;

  /// |Q| — the enumerated initial hardware states.
  virtual std::size_t numStates() const = 0;

  /// Human-readable label of state q (reports and witnesses).
  virtual std::string stateLabel(std::size_t q) const;

  /// T(q, trace): cycles to execute the dynamic trace starting from
  /// hardware state q.  Deterministic and safe to call concurrently.
  virtual Cycles time(std::size_t q, const isa::Trace& trace) const = 0;

  /// Packed fast path: when true, timePacked(q, compileTrace(trace,
  /// packedForm())) is a valid, bit-identical replacement for time(q,
  /// trace) whose cache-state setup is a flat copy into reusable buffers
  /// instead of a per-cell deep copy (states with a predictor still clone
  /// that one small object per cell).  The ExperimentEngine compiles each
  /// trace once and routes cells through it (EngineConfig::usePackedReplay).
  virtual bool supportsPackedReplay() const { return false; }

  /// The one replay form timePacked reads (exp/replay.h): the additive
  /// Streams by default; the out-of-order models read Ops.  The engine
  /// lowers only this form, so rp passed to timePacked may hold nothing
  /// else.
  virtual ReplayForm packedForm() const { return ReplayForm::Streams; }

  /// T(q, rp) over the compiled replay form packedForm().  Only meaningful
  /// when supportsPackedReplay(); the default throws std::logic_error.
  virtual Cycles timePacked(std::size_t q, const ReplayProgram& rp) const;

  /// The state-axis collapse hook (exp/engine.h).  Given one trace class's
  /// replay form (packedForm()), returns a key over the class's footprint:
  /// the distinct data words its replay accesses and, for a model with an
  /// I-cache, its distinct fetch pcs.  Contract: two states whose keys are
  /// equal replay every trace with that footprint — rp's among them — to
  /// equal times under timePacked.  The engine calls it once per trace
  /// class, never per cell.  nullptr declines, and the default declines:
  /// a model whose time depends on state it cannot key exactly (an rng, a
  /// predictor table, a co-runner set) keeps one group per state.
  virtual std::unique_ptr<const ObservableKey> observableKey(
      const ReplayProgram& rp) const;
};

/// In-order pipeline over explicit snapshot states: data cache, optional
/// I-cache, optional predictor prototype (cloned per evaluation).  The
/// cached in-order presets build on this.
class InOrderSnapshotModel : public TimingModel {
 public:
  struct State {
    cache::SetAssocCache cache;
    std::optional<cache::SetAssocCache> icache;
    std::shared_ptr<const branch::Predictor> predictor;
    std::string label;
  };

  /// Packs every state's cache(s) into flat snapshots up front (when the
  /// geometry permits), enabling the allocation-free replay fast path.
  InOrderSnapshotModel(std::string name, pipeline::InOrderConfig config,
                       std::vector<State> states);

  std::string name() const override { return name_; }
  std::size_t numStates() const override { return states_.size(); }
  std::string stateLabel(std::size_t q) const override {
    return states_[q].label;
  }
  Cycles time(std::size_t q, const isa::Trace& trace) const override;

  bool supportsPackedReplay() const override { return packedOk_; }
  Cycles timePacked(std::size_t q, const ReplayProgram& rp) const override;

  /// The data cache's projection over the data footprint, then the
  /// I-cache's over the fetch footprint when the states have one
  /// (cache::PackedCacheState::project).  Declines when a state carries a
  /// predictor (its table is not keyed), when the states' caches differ in
  /// geometry, policy or timing, under RANDOM, and on a footprint word
  /// outside the sets.
  std::unique_ptr<const ObservableKey> observableKey(
      const ReplayProgram& rp) const override;

 private:
  /// Flat snapshot pair for one state; icache holds no sets when absent.
  struct PackedState {
    cache::PackedCacheState data;
    cache::PackedCacheState icache;
    bool hasICache = false;
  };

  std::string name_;
  pipeline::InOrderConfig config_;
  std::vector<State> states_;
  std::vector<PackedState> packed_;  ///< parallel to states_ when packedOk_
  bool packedOk_ = false;
  bool keyable_ = false;  ///< observableKey can key (see there)
};

/// Knobs shared by all platform factories.  Presets interpret the subset
/// that applies to them and ignore the rest.
struct PlatformOptions {
  int numStates = 8;          ///< requested |Q| (stateless platforms clamp)
  std::uint64_t seed = 1;     ///< warm-up stream seed for cache states
  std::int64_t warmAddrSpace = 0;  ///< 0 = derive from the program layout

  cache::CacheGeometry dataGeom{4, 8, 2};
  cache::CacheTiming dataTiming{1, 10};
  cache::CacheGeometry instrGeom{4, 8, 2};
  cache::CacheTiming instrTiming{0, 6};

  pipeline::InOrderConfig inorder;
  pipeline::OooConfig ooo;
  pipeline::PretConfig pret;
  pipeline::SmtConfig smt;
  Cycles scratchpadLatency = 2;
};

/// The canonical text of a PlatformOptions: every field, one "key
/// value..." line per group ("states" ... "scratchpad-latency").  It is the
/// options block of the ShardSpec wire format (exp/shard.h), which the grid
/// result cache keys on, and the options part of the engine's model-cache
/// key (exp/engine.h) — one renderer, so neither can miss a field the
/// other sees.
std::string canonicalOptionsText(const PlatformOptions& options);

/// A named hardware composition: a factory from (program, options) to a
/// TimingModel.
struct Platform {
  std::string name;
  std::string description;
  std::function<std::unique_ptr<TimingModel>(const isa::Program&,
                                             const PlatformOptions&)>
      make;
};

/// Process-wide registry of platforms, pre-populated with the built-in
/// presets:
///
///   inorder-lru / inorder-fifo / inorder-plru / inorder-random
///       in-order pipeline, data cache with the named replacement policy;
///       Q = warmed cache snapshots
///   inorder-lru-icache    adds an instruction cache (the Figure 1 system)
///   inorder-lru-bimodal   adds a bimodal predictor with enumerated tables
///   inorder-scratchpad    fixed-latency memory; |Q| = 1 (state-predictable
///                         reference point)
///   ooo-lru / ooo-fifo    out-of-order pipeline; Q pairs cache snapshots
///                         with initial unit-occupancy residues
///   ooo-fixedlat          out-of-order pipeline over a fixed-latency
///                         scratchpad; Q = unit-occupancy residues only
///   ooo-preschedule       as ooo-fixedlat, draining at basic-block
///                         boundaries (Rochange & Sainrat's predictable
///                         execution mode, Table 1 row 2)
///   vtrace                virtual-trace discipline (Whitham & Audsley,
///                         Table 1 row 6); |Q| = 1 by construction
///   pret                  thread-interleaved PRET pipeline; Q = thread slot
///   smt-rr / smt-rtprio   SMT pipeline; Q = execution contexts (co-runner
///                         thread sets), round-robin vs RT-priority issue
///
/// All methods are thread-safe; registered platforms are never removed, so
/// pointers returned by find() stay valid for the registry's lifetime.
/// Nor can a name be re-bound (add rejects duplicates), so (id(), name)
/// pins one factory for the process's lifetime.
class PlatformRegistry {
 public:
  /// The shared registry instance.
  static PlatformRegistry& instance();

  /// Registers a platform.  Throws std::invalid_argument on duplicates.
  void add(Platform platform);

  /// nullptr when unknown.
  const Platform* find(const std::string& name) const;

  /// Instantiates the named platform for a program.  Throws
  /// std::invalid_argument on unknown names.
  std::unique_ptr<TimingModel> make(const std::string& name,
                                    const isa::Program& program,
                                    const PlatformOptions& options = {}) const;

  /// All registered names, sorted.
  std::vector<std::string> names() const;

  /// Process-unique and never reused, unlike the registry's address: two
  /// registries can bind one name to different factories, and a dead
  /// registry's address can come back.  Content-keyed caches of made models
  /// (ExperimentEngine::model) key on it.
  std::uint64_t id() const { return id_; }

  /// A fresh registry with only the built-in presets (tests).
  PlatformRegistry();

 private:
  const std::uint64_t id_;
  mutable std::mutex mutex_;
  std::map<std::string, Platform> platforms_;  // sorted; O(log n) find
};

}  // namespace pred::exp
