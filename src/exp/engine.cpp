#include "exp/engine.h"

#include <algorithm>
#include <bit>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "exp/worker_pool.h"
#include "obs/span.h"

namespace pred::exp {

ExperimentEngine::ExperimentEngine(EngineConfig config) : config_(config) {
  if (config_.tileStates == 0) config_.tileStates = 1;
  if (config_.tileInputs == 0) config_.tileInputs = 1;
  // Resolve every hot-path metric once; the registry hands out stable
  // addresses, so the walks below never touch its lock again.
  cMatrixBuilds_ = &metrics_.counter("engine.matrix_builds");
  cGridWalks_ = &metrics_.counter("engine.grid_walks");
  cTiles_ = &metrics_.counter("engine.tiles");
  cCells_ = &metrics_.counter("engine.cells");
  cTraceClasses_ = &metrics_.counter("engine.trace_classes");
  cCellsCollapsed_ = &metrics_.counter("engine.cells_collapsed");
  cStateGroups_ = &metrics_.counter("engine.state_groups");
  cCellsReplayed_ = &metrics_.counter("engine.cells_replayed");
  cModelHits_ = &metrics_.counter("engine.model_cache.hits");
  cModelMisses_ = &metrics_.counter("engine.model_cache.misses");
  pModelMake_ = &metrics_.phase("model.make");
  pResolve_ = &metrics_.phase("resolve");
  pGroup_ = &metrics_.phase("group");
  pReplayPacked_ = &metrics_.phase("replay.packed");
  pReplayInterp_ = &metrics_.phase("replay.interpreted");
  pReplayBatched_ = &metrics_.phase("replay.batched");
  pMerge_ = &metrics_.phase("reduce.merge");
  util_ = obs::WorkerUtil(std::max(resolvedThreads(), 1));
}

obs::RunReport ExperimentEngine::report() const {
  obs::RunReport r = obs::snapshotReport(metrics_, util_);
  // The trace store keeps its own counters (it predates the registry and
  // has store-local reset semantics); export them under the same namespace
  // scheme so one report covers the whole engine.
  r.counters["trace_store.hits"] = store_.hits();
  r.counters["trace_store.misses"] = store_.misses();
  r.counters["trace_store.entries"] =
      static_cast<std::uint64_t>(store_.size());
  r.counters["trace_store.classes"] =
      static_cast<std::uint64_t>(store_.classCount());
  return r;
}

std::shared_ptr<const TimingModel> ExperimentEngine::model(
    const PlatformRegistry& registry, const std::string& platform,
    const isa::Program& program, const PlatformOptions& options) {
  ModelKey key{registry.id(), platform, programFingerprint(program),
               canonicalOptionsText(options)};
  std::lock_guard<std::mutex> lock(modelMutex_);
  const auto it =
      std::find_if(models_.begin(), models_.end(),
                   [&key](const CachedModel& c) { return c.key == key; });
  if (it != models_.end()) {
    cModelHits_->add();
    std::rotate(models_.begin(), it, std::next(it));
    return models_.front().model;
  }
  cModelMisses_->add();
  std::shared_ptr<const TimingModel> made;
  {
    obs::Span span(pModelMake_);
    made = registry.make(platform, program, options);
  }
  if (models_.size() == kModelCacheCapacity) models_.pop_back();
  models_.insert(models_.begin(), CachedModel{std::move(key), made});
  return made;
}

int ExperimentEngine::resolvedThreads() const {
  if (config_.threads > 0) return config_.threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

// The keys live in one flat thread-local buffer, reused across calls; a
// linear-probing table over group ids buckets them by hash.
std::uint32_t groupStates(const ObservableKey& key, std::size_t qBegin,
                          std::size_t n, std::uint32_t* members,
                          std::uint32_t* starts) {
  thread_local std::vector<std::int64_t> keys;
  thread_local std::vector<std::size_t> keyAt;   // per state, into keys
  thread_local std::vector<std::uint32_t> slots;  // group + 1; 0 = empty
  thread_local std::vector<std::uint32_t> groupOf;  // per state
  thread_local std::vector<std::uint32_t> firstOf;  // per group
  keys.clear();
  keyAt.resize(n + 1);
  for (std::size_t r = 0; r < n; ++r) {
    keyAt[r] = keys.size();
    key.append(qBegin + r, keys);
  }
  keyAt[n] = keys.size();
  const auto same = [](std::size_t a, std::size_t b) {
    return keyAt[a + 1] - keyAt[a] == keyAt[b + 1] - keyAt[b] &&
           std::equal(keys.begin() + keyAt[a], keys.begin() + keyAt[a + 1],
                      keys.begin() + keyAt[b]);
  };
  const std::size_t mask = std::bit_ceil(2 * n) - 1;
  slots.assign(mask + 1, 0);
  groupOf.resize(n);
  firstOf.clear();
  for (std::size_t r = 0; r < n; ++r) {
    std::uint64_t h = 0x9E3779B97F4A7C15ull;
    for (std::size_t j = keyAt[r]; j < keyAt[r + 1]; ++j) {
      h = (h ^ static_cast<std::uint64_t>(keys[j])) * 0x100000001B3ull;
    }
    std::size_t slot = (h ^ (h >> 29)) & mask;
    while (slots[slot] != 0 && !same(firstOf[slots[slot] - 1], r)) {
      slot = (slot + 1) & mask;
    }
    if (slots[slot] == 0) {
      firstOf.push_back(static_cast<std::uint32_t>(r));
      slots[slot] = static_cast<std::uint32_t>(firstOf.size());
    }
    groupOf[r] = slots[slot] - 1;
  }
  // Counting sort by group: ascending states stay ascending per group.
  const auto groups = static_cast<std::uint32_t>(firstOf.size());
  std::fill(starts, starts + groups + 1, 0);
  for (std::size_t r = 0; r < n; ++r) ++starts[groupOf[r] + 1];
  for (std::uint32_t g = 0; g < groups; ++g) starts[g + 1] += starts[g];
  std::fill(firstOf.begin(), firstOf.end(), 0);  // now a fill cursor
  for (std::size_t r = 0; r < n; ++r) {
    const std::uint32_t g = groupOf[r];
    members[starts[g] + firstOf[g]++] = static_cast<std::uint32_t>(qBegin + r);
  }
  return groups;
}

std::vector<core::StreamingMeasures> ExperimentEngine::walk(
    const std::vector<Item>& items, bool batched, core::TimingMatrix* matrix) {
  const std::size_t n = items.size();
  const bool collapse = config_.collapseTraceClasses && matrix == nullptr;

  /// Per-item evaluation context, resolved up front so pass 2 is a pure
  /// walk.
  struct Prepared {
    /// The replay form the item's cells read; None on the interpreted path.
    ReplayForm form = ReplayForm::None;
    /// Store entries of the item's inputs, indexed from iBegin.
    std::vector<TraceStore::EntryRef> refs;
    /// Walked columns: ascending GLOBAL input indices per column, columns
    /// ordered by first appearance.
    std::vector<std::vector<std::size_t>> cols;
    /// The rows of each column: its state groups.  A column c with fewer
    /// rows than states lists its groups' global state indices in
    /// members[c * states, (c + 1) * states), group g at
    /// [starts[c * (states + 1) + g], starts[c * (states + 1) + g + 1]) of
    /// that slice.  Any other column has one implicit group per state and
    /// uses no storage (a key that groups nothing yields exactly those);
    /// members and starts stay empty for an item that cannot key.
    std::size_t states = 0;
    std::vector<std::uint32_t> rows;  ///< per column: its group count
    std::vector<std::uint32_t> members;
    std::vector<std::uint32_t> starts;
    /// Tiles per chunk of tileInputs columns, as prefix offsets.
    std::vector<std::size_t> chunkTiles;
  };
  std::vector<Prepared> prep(n);
  // Prefix offsets flatten the per-item work into single pool work lists;
  // the owning item of work k is recovered by binary search.
  const auto ownerOf = [](const std::vector<std::size_t>& offsets,
                          std::size_t k) {
    return static_cast<std::size_t>(
        std::upper_bound(offsets.begin(), offsets.end(), k) -
        offsets.begin() - 1);
  };
  std::vector<std::size_t> inputOffset(n + 1, 0);
  for (std::size_t k = 0; k < n; ++k) {
    const TimingModel& model = *items[k].grid.model;
    if (config_.usePackedReplay && model.supportsPackedReplay()) {
      prep[k].form = model.packedForm();
    }
    prep[k].refs.resize(items[k].iEnd - items[k].iBegin);
    inputOffset[k + 1] = inputOffset[k] + prep[k].refs.size();
  }

  // Pass 1: resolve (and memoize) every item's input range — lowering
  // traces only into the form the item's model replays.  Each item's
  // program is hashed once here, not once per lookup.
  {
    obs::Span span(pResolve_);
    std::vector<TraceStore::ProgramKey> programs;
    programs.reserve(n);
    for (const Item& item : items) programs.emplace_back(*item.grid.program);
    WorkerPool::shared().run(
        inputOffset.back(), resolvedThreads(),
        [&](std::size_t j, int) {
          const std::size_t k = ownerOf(inputOffset, j);
          const Item& item = items[k];
          const std::size_t di = j - inputOffset[k];
          prep[k].refs[di] = store_.entryRefFor(
              programs[k], (*item.grid.inputs)[item.iBegin + di],
              prep[k].form);
        },
        &util_);
  }

  // Columns: with collapse, one per trace class in the item's range, whose
  // representative (smallest member) is timed once and fanned out to every
  // member by addEqual — equal traces replay to equal times on every
  // deterministic model, also for shard ranges that pick a different
  // in-range representative of the same global class.  Without, one per
  // input.
  std::vector<std::pair<std::size_t, std::size_t>> keyWork;  // (item, col)
  for (std::size_t k = 0; k < n; ++k) {
    const Item& item = items[k];
    Prepared& p = prep[k];
    std::unordered_map<std::size_t, std::size_t> colOf;
    for (std::size_t i = item.iBegin; i < item.iEnd; ++i) {
      const std::size_t key = collapse ? p.refs[i - item.iBegin].classId : i;
      const auto [it, fresh] = colOf.try_emplace(key, p.cols.size());
      if (fresh) p.cols.emplace_back();
      p.cols[it->second].push_back(i);
    }
    if (collapse) {
      cTraceClasses_->add(p.cols.size());
      cCellsCollapsed_->add((item.qEnd - item.qBegin) *
                            (p.refs.size() - p.cols.size()));
    }
    p.states = item.qEnd - item.qBegin;
    p.rows.assign(p.cols.size(), static_cast<std::uint32_t>(p.states));
    // The state axis collapses with the input axis, on the packed path.
    if (collapse && p.form != ReplayForm::None && p.states > 1) {
      p.members.resize(p.cols.size() * p.states);
      p.starts.resize(p.cols.size() * (p.states + 1));
      for (std::size_t c = 0; c < p.cols.size(); ++c) keyWork.emplace_back(k, c);
    }
  }

  // Grouping: one pool pass keys every state of each keyable column over
  // its class's footprint (the key is made once per column) and groups the
  // column's q-range by exact key.  A group replays its smallest member
  // and fans the time out to every member, so values and smallest-index
  // witnesses equal the one-row-per-state walk.  Shard ranges group within
  // [qBegin, qEnd) and keep GLOBAL state indices, like the columns.
  if (!keyWork.empty()) {
    obs::Span span(pGroup_);
    WorkerPool::shared().run(
        keyWork.size(), resolvedThreads(),
        [&](std::size_t j, int) {
          const auto [k, c] = keyWork[j];
          const Item& item = items[k];
          Prepared& p = prep[k];
          const auto key = item.grid.model->observableKey(
              *p.refs[p.cols[c].front() - item.iBegin].compiled);
          if (key == nullptr) return;
          p.rows[c] = groupStates(*key, item.qBegin, p.states,
                                  &p.members[c * p.states],
                                  &p.starts[c * (p.states + 1)]);
        },
        &util_);
  }

  // Tiles: each chunk of tileInputs columns splits into row tiles of
  // tileStates rows, as many as its longest column needs; without keyed
  // columns these are plain tileStates x tileInputs rectangles.
  std::vector<std::size_t> tileOffset(n + 1, 0);
  for (std::size_t k = 0; k < n; ++k) {
    Prepared& p = prep[k];
    const std::size_t chunks =
        (p.cols.size() + config_.tileInputs - 1) / config_.tileInputs;
    p.chunkTiles.assign(chunks + 1, 0);
    std::size_t groups = 0;
    for (std::size_t j = 0; j < chunks; ++j) {
      std::size_t longest = 0;
      for (std::size_t c = j * config_.tileInputs;
           c < std::min(p.cols.size(), (j + 1) * config_.tileInputs); ++c) {
        longest = std::max<std::size_t>(longest, p.rows[c]);
        groups += p.rows[c];
      }
      p.chunkTiles[j + 1] = p.chunkTiles[j] +
                            (longest + config_.tileStates - 1) /
                                config_.tileStates;
    }
    cStateGroups_->add(groups);
    tileOffset[k + 1] = tileOffset[k] + p.chunkTiles.back();
  }

  // Pass 2: ONE tiled walk over the union of every item's tiles.  Workers
  // fold into per-(worker, item) accumulators of the FULL grid shape; the
  // smallest-index tie-break makes the merge below independent of which
  // worker saw which tile.
  const int workers = std::max(resolvedThreads(), 1);
  std::vector<core::StreamingMeasures> accs;
  if (matrix == nullptr) {
    accs.reserve(static_cast<std::size_t>(workers) * n);
    for (int w = 0; w < workers; ++w) {
      for (const Item& item : items) {
        accs.emplace_back(item.grid.model->numStates(),
                          item.grid.inputs->size());
      }
    }
  }
  const std::size_t tiles = tileOffset.back();
  if (tiles > 0) cGridWalks_->add();
  {
    obs::PhaseAccum* replay =
        batched ? pReplayBatched_
                : (prep.front().form != ReplayForm::None ? pReplayPacked_
                                                          : pReplayInterp_);
    obs::Span span(tiles > 0 ? replay : nullptr);
    WorkerPool::shared().run(
        tiles, workers,
        [&](std::size_t tile, int worker) {
          const std::size_t k = ownerOf(tileOffset, tile);
          const Item& item = items[k];
          const Prepared& p = prep[k];
          const std::size_t local = tile - tileOffset[k];
          const std::size_t chunk = ownerOf(p.chunkTiles, local);
          const std::size_t r0 =
              (local - p.chunkTiles[chunk]) * config_.tileStates;
          const std::size_t c0 = chunk * config_.tileInputs;
          const std::size_t c1 =
              std::min(p.cols.size(), c0 + config_.tileInputs);
          const TimingModel& model = *item.grid.model;
          core::StreamingMeasures* acc =
              matrix ? nullptr
                     : &accs[static_cast<std::size_t>(worker) * n + k];
          std::size_t cells = 0, replayed = 0;
          for (std::size_t c = c0; c < c1; ++c) {
            const auto& inputs = p.cols[c];
            const auto& ref = p.refs[inputs.front() - item.iBegin];
            const bool keyed = p.rows[c] < p.states;
            const std::size_t r1 =
                std::min<std::size_t>(p.rows[c], r0 + config_.tileStates);
            for (std::size_t r = r0; r < r1; ++r) {
              auto self = static_cast<std::uint32_t>(item.qBegin + r);
              const std::uint32_t* group = &self;
              std::size_t size = 1;
              if (keyed) {
                const std::uint32_t* starts = &p.starts[c * (p.states + 1)];
                group = &p.members[c * p.states + starts[r]];
                size = starts[r + 1] - starts[r];
              }
              const core::Cycles t =
                  p.form != ReplayForm::None
                      ? model.timePacked(group[0], *ref.compiled)
                      : model.time(group[0], *ref.trace);
              if (matrix != nullptr) {
                matrix->at(group[0], inputs.front()) = t;
              } else {
                for (std::size_t m = 0; m < size; ++m) {
                  acc->addEqual(group[m], inputs.data(), inputs.size(), t);
                }
              }
              cells += size;
              ++replayed;
            }
          }
          // One relaxed add per tile keeps the cell loop untouched.
          cTiles_->add();
          cCells_->add(cells);
          cCellsReplayed_->add(replayed);
        },
        &util_);
  }
  if (matrix != nullptr) return {};

  obs::Span mergeSpan(pMerge_);
  std::vector<core::StreamingMeasures> out;
  out.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    core::StreamingMeasures total = std::move(accs[k]);
    for (int w = 1; w < workers; ++w) {
      total.merge(accs[static_cast<std::size_t>(w) * n + k]);
    }
    out.push_back(std::move(total));
  }
  return out;
}

core::TimingMatrix ExperimentEngine::computeMatrix(
    const TimingModel& model, const isa::Program& program,
    const std::vector<isa::Input>& inputs) {
  cMatrixBuilds_->add();
  core::TimingMatrix m(model.numStates(), inputs.size());
  walk({Item{{&model, &program, &inputs}, 0, m.numStates(), 0,
             m.numInputs()}},
       false, &m);
  return m;
}

core::StreamingMeasures ExperimentEngine::reduceCells(
    const TimingModel& model, const isa::Program& program,
    const std::vector<isa::Input>& inputs) {
  return std::move(walk({Item{{&model, &program, &inputs}, 0,
                              model.numStates(), 0, inputs.size()}},
                        false)
                       .front());
}

std::vector<core::StreamingMeasures> ExperimentEngine::reduceCellsBatch(
    const std::vector<GridSpec>& grids) {
  std::vector<Item> items;
  items.reserve(grids.size());
  for (const GridSpec& g : grids) {
    items.push_back(Item{g, 0, g.model->numStates(), 0, g.inputs->size()});
  }
  return walk(items, true);
}

core::StreamingMeasures ExperimentEngine::reduceCellsRange(
    const TimingModel& model, const isa::Program& program,
    const std::vector<isa::Input>& inputs, std::size_t qBegin,
    std::size_t qEnd, std::size_t iBegin, std::size_t iEnd) {
  const std::size_t nQ = model.numStates();
  const std::size_t nI = inputs.size();
  if (qBegin >= qEnd || qEnd > nQ) {
    throw std::invalid_argument(
        "reduceCellsRange: bad state range [" + std::to_string(qBegin) +
        ", " + std::to_string(qEnd) + ") for |Q| = " + std::to_string(nQ));
  }
  if (iBegin >= iEnd || iEnd > nI) {
    throw std::invalid_argument(
        "reduceCellsRange: bad input range [" + std::to_string(iBegin) +
        ", " + std::to_string(iEnd) + ") for |I| = " + std::to_string(nI));
  }
  // The same walk as the single-process reduceCells, on the shard's
  // sub-rectangle: traces resolve for the input range only, and collapse
  // groups within the range but keeps GLOBAL input indices, so merged shard
  // accumulators carry the single-process witnesses byte-for-byte.
  return std::move(
      walk({Item{{&model, &program, &inputs}, qBegin, qEnd, iBegin, iEnd}},
           false)
          .front());
}

core::StreamingMeasures ExperimentEngine::mergeShards(
    std::vector<core::StreamingMeasures> shards) {
  if (shards.empty()) {
    throw std::invalid_argument("mergeShards: no shard accumulators given");
  }
  core::StreamingMeasures total = std::move(shards.front());
  for (std::size_t s = 1; s < shards.size(); ++s) total.merge(shards[s]);
  return total;
}

}  // namespace pred::exp
