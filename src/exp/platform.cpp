#include "exp/platform.h"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "branch/dynamic.h"
#include "isa/ast.h"
#include "isa/cfg.h"
#include "isa/workloads.h"
#include "pipeline/memory_iface.h"
#include "pipeline/ooo_kernel.h"
#include "pipeline/vtrace.h"

namespace pred::exp {

std::string TimingModel::stateLabel(std::size_t q) const {
  return "q" + std::to_string(q);
}

Cycles TimingModel::timePacked(std::size_t, const ReplayProgram&) const {
  throw std::logic_error("model '" + name() +
                         "' does not support packed replay");
}

std::unique_ptr<const ObservableKey> TimingModel::observableKey(
    const ReplayProgram&) const {
  return nullptr;
}

namespace {

/// True when `b` replays like `a` would from the same contents: equal
/// geometry, policy and timing.  A projection is comparable only between
/// such snapshots.
bool sameCacheShape(const cache::PackedCacheState& a,
                    const cache::PackedCacheState& b) {
  return a.geometry.lineWords == b.geometry.lineWords &&
         a.geometry.numSets == b.geometry.numSets &&
         a.geometry.ways == b.geometry.ways && a.policy == b.policy &&
         a.timing.hitLatency == b.timing.hitLatency &&
         a.timing.missLatency == b.timing.missLatency;
}

}  // namespace

InOrderSnapshotModel::InOrderSnapshotModel(std::string name,
                                           pipeline::InOrderConfig config,
                                           std::vector<State> states)
    : name_(std::move(name)), config_(config), states_(std::move(states)) {
  packedOk_ = !states_.empty();
  for (const State& s : states_) {
    if (!cache::packable(s.cache.geometry()) ||
        (s.icache && !cache::packable(s.icache->geometry()))) {
      packedOk_ = false;
      break;
    }
  }
  if (!packedOk_) return;
  packed_.reserve(states_.size());
  for (const State& s : states_) {
    PackedState p;
    p.data = s.cache.pack();
    if (s.icache) {
      p.icache = s.icache->pack();
      p.hasICache = true;
    }
    packed_.push_back(std::move(p));
  }
  const PackedState& first = packed_.front();
  keyable_ = cache::projectable(first.data.policy) &&
             (!first.hasICache || cache::projectable(first.icache.policy));
  for (std::size_t q = 0; q < states_.size() && keyable_; ++q) {
    const PackedState& p = packed_[q];
    keyable_ = states_[q].predictor == nullptr &&
               sameCacheShape(first.data, p.data) &&
               p.hasICache == first.hasICache &&
               (!p.hasICache || sameCacheShape(first.icache, p.icache));
  }
}

std::unique_ptr<const ObservableKey> InOrderSnapshotModel::observableKey(
    const ReplayProgram& rp) const {
  if (!keyable_) return nullptr;
  struct Key final : ObservableKey {
    const InOrderSnapshotModel* model = nullptr;
    cache::CacheFootprint data;
    cache::CacheFootprint fetch;
    void append(std::size_t q, std::vector<std::int64_t>& key) const override {
      const PackedState& p = model->packed_[q];
      p.data.project(data, key);
      if (p.hasICache) p.icache.project(fetch, key);
    }
  };
  auto key = std::make_unique<Key>();
  key->model = this;
  const PackedState& first = packed_.front();
  if (!key->data.build(first.data.geometry, rp.dataAddr)) return nullptr;
  if (first.hasICache &&
      !key->fetch.build(first.icache.geometry,
                        std::vector<std::int64_t>(rp.fetchPc.begin(),
                                                  rp.fetchPc.end()))) {
    return nullptr;
  }
  return key;
}

Cycles InOrderSnapshotModel::time(std::size_t q,
                                  const isa::Trace& trace) const {
  const State& s = states_[q];
  pipeline::CachedMemory mem(s.cache);  // fresh copy of the snapshot
  std::unique_ptr<branch::Predictor> predictor =
      s.predictor ? s.predictor->clone() : nullptr;
  std::unique_ptr<pipeline::CachedMemory> imem;
  if (s.icache) imem = std::make_unique<pipeline::CachedMemory>(*s.icache);
  pipeline::InOrderPipeline pipe(config_, &mem, predictor.get(), imem.get());
  return pipe.run(trace);
}

Cycles InOrderSnapshotModel::timePacked(std::size_t q,
                                        const ReplayProgram& rp) const {
  const State& s = states_[q];
  const PackedState& p = packed_[q];
  const bool withPredictor = s.predictor != nullptr;
  Cycles total = replayBaseCycles(rp, config_, withPredictor);

  // The D-cache, I-cache, and predictor are independent state machines and
  // every contribution is additive, so the interleaved legacy walk and
  // these three flat streams produce the same total, cycle for cycle.
  thread_local cache::PackedCacheSim dataSim;
  dataSim.load(p.data);
  for (const std::int64_t addr : rp.dataAddr) {
    total += dataSim.access(addr).latency;
  }

  if (p.hasICache) {
    thread_local cache::PackedCacheSim instrSim;
    instrSim.load(p.icache);
    for (const std::int32_t pc : rp.fetchPc) {
      total += instrSim.access(pc).latency;
    }
  }

  if (withPredictor) {
    const auto predictor = s.predictor->clone();
    for (std::size_t k = 0; k < rp.condBranchPc.size(); ++k) {
      const std::int32_t pc = rp.condBranchPc[k];
      const bool taken = rp.condBranchTaken[k] != 0;
      if (predictor->predictTaken(pc) != taken) {
        total += config_.mispredictPenalty;
      } else if (taken) {
        total += config_.takenPenalty;
      }
      predictor->update(pc, taken);
    }
  }
  return total;
}

namespace {

std::int64_t dataWarmSpace(const isa::Program& program,
                           const cache::CacheGeometry& geom,
                           std::int64_t requested) {
  if (requested > 0) return requested;
  return std::min(program.layout.memWords, 8 * geom.capacityWords());
}

std::int64_t instrWarmSpace(const isa::Program& program,
                            const cache::CacheGeometry& geom) {
  return std::max<std::int64_t>(static_cast<std::int64_t>(program.size()),
                                2 * geom.capacityWords());
}

// ---------------------------------------------------------------- in-order

std::unique_ptr<TimingModel> makeInOrderCached(const std::string& name,
                                               cache::Policy policy,
                                               bool withICache,
                                               bool withBimodal,
                                               const isa::Program& program,
                                               const PlatformOptions& opts) {
  auto caches = cache::enumerateInitialStates(
      opts.dataGeom, policy, opts.dataTiming, opts.numStates, opts.seed,
      dataWarmSpace(program, opts.dataGeom, opts.warmAddrSpace));
  std::vector<cache::SetAssocCache> icaches;
  if (withICache) {
    icaches = cache::enumerateInitialStates(
        opts.instrGeom, policy, opts.instrTiming, opts.numStates,
        opts.seed * 31 + 7, instrWarmSpace(program, opts.instrGeom));
  }
  std::vector<InOrderSnapshotModel::State> states;
  states.reserve(caches.size());
  for (std::size_t k = 0; k < caches.size(); ++k) {
    InOrderSnapshotModel::State s{std::move(caches[k]), std::nullopt,
                                  nullptr, "cache#" + std::to_string(k)};
    if (withICache) {
      s.icache = std::move(icaches[k]);
      s.label += "+ic";
    }
    if (withBimodal) {
      // Enumerate the predictor-table part of q: initial counter k mod 4.
      s.predictor = std::make_shared<branch::BimodalPredictor>(
          64, static_cast<int>(k % 4));
      s.label += "+bim" + std::to_string(k % 4);
    }
    states.push_back(std::move(s));
  }
  return std::make_unique<InOrderSnapshotModel>(name, opts.inorder,
                                                std::move(states));
}

/// In-order pipeline over a scratchpad: constant memory latency, no
/// enumerable hardware state (|Q| = 1) — the state-predictable reference.
class ScratchpadModel : public TimingModel {
 public:
  ScratchpadModel(pipeline::InOrderConfig config, Cycles latency)
      : config_(config), latency_(latency) {}

  std::string name() const override { return "inorder-scratchpad"; }
  std::size_t numStates() const override { return 1; }
  std::string stateLabel(std::size_t) const override { return "scratchpad"; }

  Cycles time(std::size_t, const isa::Trace& trace) const override {
    pipeline::FixedLatencyMemory mem(latency_);
    pipeline::InOrderPipeline pipe(config_, &mem);
    return pipe.run(trace);
  }

 private:
  pipeline::InOrderConfig config_;
  Cycles latency_;
};

// ------------------------------------------------------------ out-of-order

/// Out-of-order pipeline; q pairs a cache snapshot with an initial
/// unit-occupancy residue (the domino-effect state of Section 2.2).  The
/// occupancy is already a few flat words, so the packed form of a state is
/// just PackedCacheState next to it: timePacked loads the snapshot into a
/// reusable PackedCacheSim and runs the SAME dispatch loop (ooo_kernel.h)
/// the interpreted walk runs, over the pre-lowered op stream.
class OooModel : public TimingModel {
 public:
  struct State {
    cache::SetAssocCache cache;
    pipeline::OooInitialState occupancy;
    std::string label;
  };

  OooModel(std::string name, pipeline::OooConfig config,
           std::vector<State> states)
      : name_(std::move(name)),
        config_(config),
        states_(std::move(states)) {
    packedOk_ = !states_.empty();
    for (const State& s : states_) {
      if (!cache::packable(s.cache.geometry())) {
        packedOk_ = false;
        break;
      }
    }
    if (!packedOk_) return;
    packed_.reserve(states_.size());
    for (const State& s : states_) packed_.push_back(s.cache.pack());
    keyable_ = cache::projectable(packed_.front().policy) &&
               std::all_of(packed_.begin(), packed_.end(),
                           [this](const cache::PackedCacheState& p) {
                             return sameCacheShape(packed_.front(), p);
                           });
  }

  std::string name() const override { return name_; }
  std::size_t numStates() const override { return states_.size(); }
  std::string stateLabel(std::size_t q) const override {
    return states_[q].label;
  }

  Cycles time(std::size_t q, const isa::Trace& trace) const override {
    const State& s = states_[q];
    pipeline::CachedMemory mem(s.cache);
    pipeline::OooPipeline pipe(config_, &mem);
    return pipe.run(trace, s.occupancy);
  }

  bool supportsPackedReplay() const override { return packedOk_; }
  ReplayForm packedForm() const override { return ReplayForm::Ops; }

  Cycles timePacked(std::size_t q, const ReplayProgram& rp) const override {
    thread_local cache::PackedCacheSim sim;
    sim.load(packed_[q]);
    // SkipStallCycles is sound here: PackedCacheSim retries are idempotent
    // (see ooo_kernel.h).
    return pipeline::runOooKernel</*SkipStallCycles=*/true>(
        config_, rp.oooOps(),
        [](std::int64_t wordAddr) { return sim.access(wordAddr).latency; },
        states_[q].occupancy, nullptr);
  }

  /// The data cache's projection over the data words of the memory ops,
  /// then the occupancy triple.  The kernel's stall retries re-access the
  /// same op's address, inside the footprint.  Declines as the in-order
  /// model does for the cache.
  std::unique_ptr<const ObservableKey> observableKey(
      const ReplayProgram& rp) const override {
    if (!keyable_) return nullptr;
    struct Key final : ObservableKey {
      const OooModel* model = nullptr;
      cache::CacheFootprint data;
      void append(std::size_t q,
                  std::vector<std::int64_t>& key) const override {
        model->packed_[q].project(data, key);
        const pipeline::OooInitialState& occ = model->states_[q].occupancy;
        key.push_back(static_cast<std::int64_t>(occ.iu0Busy));
        key.push_back(static_cast<std::int64_t>(occ.iu1Busy));
        key.push_back(static_cast<std::int64_t>(occ.lsuBusy));
      }
    };
    std::vector<std::int64_t> words;
    for (const ReplayOp& op : rp.ops) {
      if (op.cls == static_cast<std::uint8_t>(isa::LatencyClass::Memory)) {
        words.push_back(op.memAddr);
      }
    }
    auto key = std::make_unique<Key>();
    key->model = this;
    if (!key->data.build(packed_.front().geometry, std::move(words))) {
      return nullptr;
    }
    return key;
  }

 private:
  std::string name_;
  pipeline::OooConfig config_;
  std::vector<State> states_;
  std::vector<cache::PackedCacheState> packed_;  ///< parallel when packedOk_
  bool packedOk_ = false;
  bool keyable_ = false;  ///< observableKey can key (see there)
};

/// Out-of-order pipeline over a fixed-latency scratchpad; Q = the
/// enumerated unit-occupancy residues alone.  Optionally drains at
/// basic-block leaders (the preschedule execution mode of Table 1, row 2),
/// which removes the occupancy's influence entirely.
class OooFixedLatModel : public TimingModel {
 public:
  OooFixedLatModel(std::string name, pipeline::OooConfig config,
                   Cycles memLatency, std::vector<pipeline::OooInitialState>
                       states,
                   std::set<std::int32_t> drainBefore)
      : name_(std::move(name)),
        config_(config),
        memLatency_(memLatency),
        states_(std::move(states)),
        drainBefore_(std::move(drainBefore)) {}

  std::string name() const override { return name_; }
  std::size_t numStates() const override { return states_.size(); }
  std::string stateLabel(std::size_t q) const override {
    const auto& s = states_[q];
    return "occ" + std::to_string(s.iu0Busy) + std::to_string(s.iu1Busy) +
           std::to_string(s.lsuBusy);
  }

  Cycles time(std::size_t q, const isa::Trace& trace) const override {
    pipeline::FixedLatencyMemory mem(memLatency_);
    pipeline::OooPipeline pipe(config_, &mem);
    return pipe.run(trace, states_[q],
                    drainBefore_.empty() ? nullptr : &drainBefore_);
  }

  /// No cache to snapshot at all: the packed replay is the shared kernel
  /// over the flat op stream with a constant memory latency — covering the
  /// drainBefore_ preschedule mode too, which is kernel-internal.
  bool supportsPackedReplay() const override { return !states_.empty(); }
  ReplayForm packedForm() const override { return ReplayForm::Ops; }

  Cycles timePacked(std::size_t q, const ReplayProgram& rp) const override {
    return pipeline::runOooKernel</*SkipStallCycles=*/true>(
        config_, rp.oooOps(),
        [lat = memLatency_](std::int64_t) { return lat; }, states_[q],
        drainBefore_.empty() ? nullptr : &drainBefore_);
  }

 private:
  std::string name_;
  pipeline::OooConfig config_;
  Cycles memLatency_;
  std::vector<pipeline::OooInitialState> states_;
  std::set<std::int32_t> drainBefore_;
};

std::unique_ptr<TimingModel> makeOooFixedLat(const std::string& name,
                                             bool preschedule,
                                             const isa::Program& program,
                                             const PlatformOptions& opts) {
  // Deterministic occupancy residues: the same (iu0, iu1, lsu) sweep the
  // pre-engine preschedule bench enumerated by hand.
  std::vector<pipeline::OooInitialState> states;
  for (Cycles a = 0; a <= 4; ++a) {
    for (Cycles b = 0; b <= 4; b += 2) {
      states.push_back(pipeline::OooInitialState{a, b, 0});
    }
  }
  const auto wanted =
      static_cast<std::size_t>(std::max(opts.numStates, 1));
  if (states.size() > wanted) states.resize(wanted);
  std::set<std::int32_t> drain;
  if (preschedule) {
    isa::Cfg cfg(program);
    for (const auto& bb : cfg.blocks()) drain.insert(bb.begin);
  }
  return std::make_unique<OooFixedLatModel>(name, opts.ooo,
                                            opts.scratchpadLatency,
                                            std::move(states),
                                            std::move(drain));
}

/// Virtual-trace discipline: the per-boundary pipeline reset makes the
/// execution time a pure function of the path — |Q| = 1 by construction.
class VirtualTraceModel : public TimingModel {
 public:
  VirtualTraceModel(pipeline::VirtualTraceConfig config,
                    std::set<std::int32_t> boundaries)
      : pipe_(config, std::move(boundaries)) {}

  std::string name() const override { return "vtrace"; }
  std::size_t numStates() const override { return 1; }
  std::string stateLabel(std::size_t) const override { return "reset"; }

  Cycles time(std::size_t, const isa::Trace& trace) const override {
    return pipe_.run(trace);
  }

 private:
  pipeline::VirtualTracePipeline pipe_;
};

std::unique_ptr<TimingModel> makeOoo(const std::string& name,
                                     cache::Policy policy,
                                     const isa::Program& program,
                                     const PlatformOptions& opts) {
  auto caches = cache::enumerateInitialStates(
      opts.dataGeom, policy, opts.dataTiming, opts.numStates, opts.seed,
      dataWarmSpace(program, opts.dataGeom, opts.warmAddrSpace));
  std::vector<OooModel::State> states;
  states.reserve(caches.size());
  for (std::size_t k = 0; k < caches.size(); ++k) {
    // Deterministic occupancy residue per index: cycles until IU0/IU1/LSU
    // free, the enumerable leftover of previously executing code.
    pipeline::OooInitialState occ{k % 4, (k / 2) % 3, (k / 3) % 2};
    states.push_back(OooModel::State{
        std::move(caches[k]), occ,
        "cache#" + std::to_string(k) + "+occ" + std::to_string(occ.iu0Busy) +
            std::to_string(occ.iu1Busy) + std::to_string(occ.lsuBusy)});
  }
  return std::make_unique<OooModel>(name, opts.ooo, std::move(states));
}

// ------------------------------------------------------------------- PRET

/// PRET thread-interleaved pipeline; q = the hardware-thread slot the
/// program runs in.  Per the PRET guarantee the slot is the ONLY state the
/// timing can depend on.
class PretModel : public TimingModel {
 public:
  PretModel(pipeline::PretConfig config, std::size_t numSlots)
      : config_(config), numSlots_(numSlots) {}

  std::string name() const override { return "pret"; }
  std::size_t numStates() const override { return numSlots_; }
  std::string stateLabel(std::size_t q) const override {
    return "slot" + std::to_string(q);
  }

  Cycles time(std::size_t q, const isa::Trace& trace) const override {
    return pipeline::PretPipeline(config_).threadTime(trace,
                                                      static_cast<int>(q));
  }

 private:
  pipeline::PretConfig config_;
  std::size_t numSlots_;
};

// -------------------------------------------------------------------- SMT

/// SMT pipeline; q = the execution context, i.e. which co-runner traces
/// occupy the non-real-time threads.  The program under measurement is
/// always thread 0.
class SmtModel : public TimingModel {
 public:
  SmtModel(std::string name, pipeline::SmtConfig config, int numContexts)
      : name_(std::move(name)), config_(config) {
    // Fixed co-runner pool; contexts are the prefixes and singletons of it,
    // deterministic and independent of the measured program.
    const std::pair<const char*, isa::ast::AstProgram> pool[] = {
        {"matMul", isa::workloads::matMul(4)},
        {"bubbleSort", isa::workloads::bubbleSort(8)},
        {"divKernel", isa::workloads::divKernel(12)},
    };
    for (const auto& [bgName, ast] : pool) {
      auto run = isa::FunctionalCore::run(isa::ast::compileBranchy(ast),
                                          isa::Input{});
      bgTraces_.push_back(std::move(run.trace));
      bgNames_.emplace_back(bgName);
    }
    const std::vector<std::vector<std::size_t>> contextPool = {
        {}, {0}, {0, 1}, {0, 1, 2}, {1}, {2}, {1, 2}, {0, 2}};
    const std::size_t n = std::min<std::size_t>(
        contextPool.size(),
        static_cast<std::size_t>(std::max(numContexts, 1)));
    contexts_.assign(contextPool.begin(), contextPool.begin() + n);
  }

  std::string name() const override { return name_; }
  std::size_t numStates() const override { return contexts_.size(); }
  std::string stateLabel(std::size_t q) const override {
    std::string label = "RT";
    for (std::size_t b : contexts_[q]) label += "+" + bgNames_[b];
    return label;
  }

  Cycles time(std::size_t q, const isa::Trace& trace) const override {
    std::vector<const isa::Trace*> threads = {&trace};
    for (std::size_t b : contexts_[q]) threads.push_back(&bgTraces_[b]);
    return pipeline::SmtPipeline(config_).run(threads)[0];
  }

 private:
  std::string name_;
  pipeline::SmtConfig config_;
  std::vector<isa::Trace> bgTraces_;
  std::vector<std::string> bgNames_;
  std::vector<std::vector<std::size_t>> contexts_;
};

// ----------------------------------------------------------------- options

void putGeom(std::ostream& os, const char* key,
             const cache::CacheGeometry& g) {
  os << key << " " << g.lineWords << " " << g.numSets << " " << g.ways
     << "\n";
}

void putTiming(std::ostream& os, const char* key,
               const cache::CacheTiming& t) {
  os << key << " " << t.hitLatency << " " << t.missLatency << "\n";
}

/// Source of PlatformRegistry::id(): never reset, so never reused.
std::atomic<std::uint64_t> nextRegistryId{1};

}  // namespace

std::string canonicalOptionsText(const PlatformOptions& o) {
  std::ostringstream os;
  os << "states " << o.numStates << "\n";
  os << "seed " << o.seed << "\n";
  os << "warm-addr-space " << o.warmAddrSpace << "\n";
  putGeom(os, "data-geom", o.dataGeom);
  putTiming(os, "data-timing", o.dataTiming);
  putGeom(os, "instr-geom", o.instrGeom);
  putTiming(os, "instr-timing", o.instrTiming);
  os << "inorder " << o.inorder.aluLatency << " " << o.inorder.mulLatency
     << " " << (o.inorder.constantDiv ? 1 : 0) << " "
     << o.inorder.controlLatency << " " << o.inorder.takenPenalty << " "
     << o.inorder.mispredictPenalty << "\n";
  os << "ooo " << o.ooo.aluLatency << " " << o.ooo.mulLatency << " "
     << (o.ooo.constantDiv ? 1 : 0) << " " << o.ooo.controlLatency << " "
     << o.ooo.takenRedirect << " " << o.ooo.dispatchWidth << "\n";
  os << "pret " << o.pret.numThreads << "\n";
  os << "smt " << static_cast<int>(o.smt.policy) << " " << o.smt.aluLatency
     << " " << o.smt.mulLatency << " " << o.smt.memLatency << " "
     << o.smt.controlLatency << " " << (o.smt.constantDiv ? 1 : 0) << "\n";
  os << "scratchpad-latency " << o.scratchpadLatency << "\n";
  return os.str();
}

// ---------------------------------------------------------------- registry

PlatformRegistry::PlatformRegistry() : id_(nextRegistryId.fetch_add(1)) {
  auto addInOrder = [this](const std::string& name, cache::Policy policy,
                           bool icache, bool bimodal,
                           const std::string& description) {
    add(Platform{name, description,
                 [name, policy, icache, bimodal](
                     const isa::Program& p, const PlatformOptions& o) {
                   return makeInOrderCached(name, policy, icache, bimodal, p,
                                            o);
                 }});
  };
  addInOrder("inorder-lru", cache::Policy::LRU, false, false,
             "in-order pipeline, LRU data cache");
  addInOrder("inorder-fifo", cache::Policy::FIFO, false, false,
             "in-order pipeline, FIFO data cache");
  addInOrder("inorder-plru", cache::Policy::PLRU, false, false,
             "in-order pipeline, PLRU data cache");
  addInOrder("inorder-random", cache::Policy::RANDOM, false, false,
             "in-order pipeline, random-replacement data cache");
  addInOrder("inorder-lru-icache", cache::Policy::LRU, true, false,
             "in-order pipeline, split LRU D-cache + I-cache (Figure 1)");
  addInOrder("inorder-lru-bimodal", cache::Policy::LRU, false, true,
             "in-order pipeline, LRU data cache + bimodal predictor");
  add(Platform{"inorder-scratchpad",
               "in-order pipeline over a fixed-latency scratchpad (|Q| = 1)",
               [](const isa::Program&, const PlatformOptions& o) {
                 return std::make_unique<ScratchpadModel>(
                     o.inorder, o.scratchpadLatency);
               }});
  add(Platform{"ooo-lru",
               "out-of-order pipeline, LRU data cache x unit occupancies",
               [](const isa::Program& p, const PlatformOptions& o) {
                 return makeOoo("ooo-lru", cache::Policy::LRU, p, o);
               }});
  add(Platform{"ooo-fifo",
               "out-of-order pipeline, FIFO data cache x unit occupancies",
               [](const isa::Program& p, const PlatformOptions& o) {
                 return makeOoo("ooo-fifo", cache::Policy::FIFO, p, o);
               }});
  add(Platform{"ooo-fixedlat",
               "out-of-order pipeline, fixed-latency memory; Q = unit "
               "occupancies",
               [](const isa::Program& p, const PlatformOptions& o) {
                 return makeOooFixedLat("ooo-fixedlat", false, p, o);
               }});
  add(Platform{"ooo-preschedule",
               "out-of-order pipeline draining at basic-block boundaries "
               "(Rochange & Sainrat); Q = unit occupancies",
               [](const isa::Program& p, const PlatformOptions& o) {
                 return makeOooFixedLat("ooo-preschedule", true, p, o);
               }});
  add(Platform{"vtrace",
               "virtual-trace discipline (Whitham & Audsley): constant-"
               "duration ops, scratchpad, reset at trace boundaries; |Q| = 1",
               [](const isa::Program& p, const PlatformOptions& o) {
                 pipeline::VirtualTraceConfig cfg;
                 cfg.memLatency = o.scratchpadLatency;
                 isa::Cfg cfgGraph(p);
                 return std::make_unique<VirtualTraceModel>(
                     cfg, pipeline::computeTraceBoundaries(
                              cfgGraph, cfg.maxTraceLen));
               }});
  add(Platform{"pret",
               "PRET thread-interleaved pipeline; Q = thread slots",
               [](const isa::Program&, const PlatformOptions& o) {
                 const auto slots = static_cast<std::size_t>(std::clamp(
                     o.numStates, 1, o.pret.numThreads));
                 return std::make_unique<PretModel>(o.pret, slots);
               }});
  auto addSmt = [this](const std::string& name, pipeline::SmtPolicy policy,
                       const std::string& description) {
    add(Platform{name, description,
                 [name, policy](const isa::Program&,
                                const PlatformOptions& o) {
                   pipeline::SmtConfig cfg = o.smt;
                   cfg.policy = policy;
                   return std::make_unique<SmtModel>(name, cfg,
                                                     o.numStates);
                 }});
  };
  addSmt("smt-rr", pipeline::SmtPolicy::RoundRobin,
         "SMT, fair round-robin issue; Q = co-runner contexts");
  addSmt("smt-rtprio", pipeline::SmtPolicy::RtPriority,
         "SMT, RT-priority issue; Q = co-runner contexts");
}

PlatformRegistry& PlatformRegistry::instance() {
  static PlatformRegistry registry;
  return registry;
}

void PlatformRegistry::add(Platform platform) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto name = platform.name;
  if (!platforms_.emplace(name, std::move(platform)).second) {
    throw std::invalid_argument("duplicate platform: " + name);
  }
}

const Platform* PlatformRegistry::find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Map nodes are stable and never erased, so the pointer outlives the lock.
  const auto it = platforms_.find(name);
  return it == platforms_.end() ? nullptr : &it->second;
}

std::unique_ptr<TimingModel> PlatformRegistry::make(
    const std::string& name, const isa::Program& program,
    const PlatformOptions& options) const {
  const Platform* p = find(name);
  if (p == nullptr) throw std::invalid_argument("unknown platform: " + name);
  return p->make(program, options);
}

std::vector<std::string> PlatformRegistry::names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(platforms_.size());
  for (const auto& [name, p] : platforms_) out.push_back(name);
  return out;  // map iteration order is already sorted
}

}  // namespace pred::exp
