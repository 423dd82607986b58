#pragma once
// engine.h — Parallel computation and reduction of timing matrices.
//
// Definitions 3–5 are minima over the full Q×I cross product of T_p(q, i) —
// an embarrassingly parallel computation.  The ExperimentEngine evaluates a
// TimingModel over Q×I on the shared persistent WorkerPool with
// deterministic tiling: the matrix cells are partitioned into tiles up
// front, workers pull tiles from an atomic cursor, and every cell's value
// and storage slot are fixed before any thread starts.  Because each cell
// is written exactly once to its own slot by a deterministic evaluator, the
// parallel result is bit-identical to the serial one for any thread count
// or tile shape — the property the engine tests assert cell-for-cell.
//
// Every entry point is ONE private walk over items of the form (grid,
// q-range, i-range).  The walk makes up to three pool passes: the first
// resolves every item's input range through the TraceStore, the second
// groups the states of every column (below), the third walks the union of
// all items' tiles.  Two sinks hang off that walk:
//   the streaming sink folds cells into StreamingMeasures (per worker and
//     item, merged in worker order), so exhaustive queries that don't keep
//     matrices never allocate |Q|×|I|.  reduceCells and reduceCellsRange
//     are one-item walks; reduceCellsBatch walks MANY grids at once, so a
//     scenario sweep of small grids stops paying a pool barrier per query;
//   the matrix sink (computeMatrix) writes one cell per input into the
//     dense |Q|×|I| TimingMatrix and never collapses — the uncollapsed
//     reference the differential tests compare the streaming sink against.
//
// The per-cell evaluator routes through the model's packed replay fast path
// (compiled traces + flat cache snapshots, exp/replay.h) whenever the model
// supports it; EngineConfig::usePackedReplay forces the legacy interpreted
// path, which benches use to measure the speedup.  Both paths are
// bit-identical (asserted in tests).
//
// Orthogonally, the streaming sink collapses both axes before walking them
// (EngineConfig::collapseTraceClasses):
//   the INPUT axis: inputs whose functional traces are record-for-record
//     identical — the TraceStore's trace-equivalence classes — form one
//     column of the walk, timed once per state;
//   the STATE axis: T(q, trace) depends only on the part of q the trace
//     can observe.  On the packed path, the grouping pass asks the model
//     for an exact key over each column's footprint
//     (TimingModel::observableKey: the class's distinct data words, plus
//     its fetch pcs under an I-cache), keys every state of the column's
//     q-range into one reused flat buffer, and groups the states by exact
//     key compare.  A column's rows are its state groups, stored flat (one
//     index array plus group starts per column, groups ordered by first
//     member, members ascending); a column without a key — a model that
//     declines, the interpreted path, the matrix sink, collapse off — has
//     one implicit row per state and no per-state storage, so a walk
//     without keys is the plain rectangle walk.  A keyed item holds two
//     32-bit indices per (state, column) cell of its range.
// Each row replays its smallest state against its column's smallest input
// once, and the time fans out to every (state, input) member through
// StreamingMeasures::addEqual.  Values and smallest-index witnesses are
// bit-identical to the uncollapsed walk by construction.  Shard ranges
// group within [qBegin, qEnd) and [iBegin, iEnd) but keep GLOBAL indices,
// so merged shards stay byte-exact.  The tile shape never affects results:
// each chunk of tileInputs columns splits into tiles of tileStates rows.
//
// Counters (metrics(), per run through report() deltas):
//   engine.cells           (state, column) cells walked — what the walk
//                          covers, collapsed states included
//   engine.cells_collapsed cells the input axis folded away
//   engine.trace_classes   columns of collapsing walks
//   engine.state_groups    rows walked: the state groups of every column,
//                          one per state where a column has no key
//   engine.cells_replayed  model evaluations actually run; every row of a
//                          walk replays once, so it equals state_groups'
//                          increase, and engine.cells on uncollapsed walks
//
// The engine owns a TraceStore (trace_store.h) so the functional trace of
// each input — and the replay form its models read — is computed once and
// replayed across all hardware states and across every matrix the engine
// computes.
//
// It also owns a model cache, so the enumerated Q of a grid is built once
// per engine rather than once per run: model() returns the TimingModel a
// PlatformRegistry makes of (platform, program, options), keyed by exact
// content — the registry's id(), the platform name, programFingerprint (the
// program part of the TraceStore's key) and canonicalOptionsText (the
// options block of the ShardSpec wire) — never by a name or an address
// alone.  It keeps the kModelCacheCapacity most recently used models;
// callers share ownership, so an eviction never frees a model in use.  A
// fresh engine starts with both caches empty, so a cold query stays cold.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/definitions.h"
#include "core/measures.h"
#include "exp/platform.h"
#include "exp/trace_store.h"
#include "obs/metrics.h"
#include "obs/run_report.h"

namespace pred::exp {

struct EngineConfig {
  /// Worker threads; 0 = hardware concurrency, 1 = serial (no pool use).
  int threads = 0;
  /// Tile shape (states x inputs per work item).  Purely a scheduling
  /// granularity knob; never affects results.
  std::size_t tileStates = 4;
  std::size_t tileInputs = 8;
  /// Evaluate through the model's packed replay fast path when available.
  /// Never affects results (bit-identity is asserted in tests); off forces
  /// the legacy time(q, trace) evaluator, the benches' baseline.
  bool usePackedReplay = true;
  /// Collapse both axes of every streaming reduction (see the file
  /// comment).  Inputs: T(q, i) is a function of the functional trace
  /// alone, so inputs with record-identical traces are timed ONCE per
  /// state.  States: on the packed path, states whose observable keys over
  /// a trace class's footprint are equal are timed ONCE per class.  Each
  /// result fans out to all members through StreamingMeasures::addEqual
  /// with smallest-index witness attribution.  Never affects results —
  /// values and witnesses are bit-identical to the uncollapsed walk by
  /// construction (gated cell-for-cell and witness-for-witness in
  /// tests/differential_test.cpp, and pinned by tests/golden_test.cpp);
  /// off forces the one-cell-per-(state, input) walk, the benches' collapse
  /// baseline.  Scheduling / evaluation-strategy knob: invisible to result
  /// identities and cache keys (canonicalResultIdentity normalizes it
  /// away).
  bool collapseTraceClasses = true;
};

/// Groups the states [qBegin, qBegin + n) by `key`, compared exactly (a
/// hash only buckets them): writes the n global state indices, grouped, to
/// `members`, and the group boundaries (groups + 1 entries, starting at 0)
/// to `starts`.  Groups are ordered by first member and members ascend.
/// Returns the group count.  The walk's grouping pass runs it once per
/// keyed column; it allocates only when its reused buffers grow.
std::uint32_t groupStates(const ObservableKey& key, std::size_t qBegin,
                          std::size_t n, std::uint32_t* members,
                          std::uint32_t* starts);

class ExperimentEngine {
 public:
  explicit ExperimentEngine(EngineConfig config = {});

  /// T over Q x I for a program and input set; functional traces (and their
  /// compiled replay forms) come from the engine's memoizing TraceStore.
  core::TimingMatrix computeMatrix(const TimingModel& model,
                                   const isa::Program& program,
                                   const std::vector<isa::Input>& inputs);

  /// Folds every cell of Q x I into streaming min/max/Pr/SIPr/IIPr
  /// accumulators without materializing the matrix.  Same tiling, same
  /// evaluator, deterministic for any thread count; results (values AND
  /// witnesses) are bit-identical to running the core:: evaluators over
  /// computeMatrix's output.
  core::StreamingMeasures reduceCells(const TimingModel& model,
                                      const isa::Program& program,
                                      const std::vector<isa::Input>& inputs);

  /// One grid of a batched reduction: a model plus its workload.  The
  /// pointed-to objects must outlive the reduceCellsBatch call.
  struct GridSpec {
    const TimingModel* model;
    const isa::Program* program;
    const std::vector<isa::Input>* inputs;
  };

  /// reduceCells restricted to the half-open sub-rectangle
  /// [qBegin, qEnd) × [iBegin, iEnd) of the FULL grid — the per-shard
  /// evaluation of the process-sharded substrate (exp/shard.h), and the
  /// walk of every in-process exhaustive Query: one call over the whole
  /// grid, or one per rectangle of its uncertainty subsets.  The
  /// returned accumulator keeps the full |Q|×|I| shape and global indices,
  /// with only the sub-rectangle's cells fed, so shard accumulators merge
  /// into exactly the single-process reduceCells result (values AND
  /// witnesses, for any partition — the smallest-index tie-break makes the
  /// merge order-independent; asserted in tests/shard_test.cpp).  Traces
  /// are resolved (and memoized) for the input range only.  Throws
  /// std::invalid_argument on ranges outside the grid or empty ranges.
  core::StreamingMeasures reduceCellsRange(const TimingModel& model,
                                           const isa::Program& program,
                                           const std::vector<isa::Input>&
                                               inputs,
                                           std::size_t qBegin,
                                           std::size_t qEnd,
                                           std::size_t iBegin,
                                           std::size_t iEnd);

  /// Folds shard accumulators (all of the full grid shape, disjoint cells)
  /// into one.  Callers pass shards smallest-index-first by convention
  /// (planShards emits them that way), but the result is the same for ANY
  /// order: merge's smallest-index tie-break is commutative and
  /// associative.  Throws std::invalid_argument on empty input or shape
  /// mismatch.
  static core::StreamingMeasures mergeShards(
      std::vector<core::StreamingMeasures> shards);

  /// reduceCells over MANY grids with a single tiled walk: all cells of all
  /// grids are enqueued as one work list on the worker pool (one grid walk,
  /// preceded by one pool pass that resolves every grid's traces), so small
  /// grids no longer serialize on per-grid barriers.  Results are the same
  /// StreamingMeasures reduceCells would produce grid by grid — values AND
  /// witnesses, for any thread count or tile shape, because per-worker
  /// accumulators merge with the smallest-index tie-break.  This is the
  /// single-pass substrate of ScenarioSuite::run.
  std::vector<core::StreamingMeasures> reduceCellsBatch(
      const std::vector<GridSpec>& grids);

  /// Models the model cache keeps (least recently used evicted first).
  static constexpr std::size_t kModelCacheCapacity = 16;

  /// The model `registry` makes of `platform` for `program` under
  /// `options`, made on the first lookup of its key and shared after that
  /// (see the file comment for the key).  Counts engine.model_cache.hits /
  /// .misses; a miss records phase model.make.  A miss makes the model
  /// under the cache's lock, so concurrent lookups of one key make it once.
  /// Throws what registry.make throws (unknown platform names), caching
  /// nothing.
  std::shared_ptr<const TimingModel> model(const PlatformRegistry& registry,
                                           const std::string& platform,
                                           const isa::Program& program,
                                           const PlatformOptions& options);

  /// Threads a computeMatrix call will actually use.
  int resolvedThreads() const;

  /// Dense |Q|×|I| matrices materialized by this engine so far — the
  /// streaming-path tests assert this stays 0 for queries without
  /// keepMatrix, subset queries included.  (Thin shim over the
  /// "engine.matrix_builds" registry counter; kept so existing callers and
  /// tests are untouched by the obs layer.)
  std::uint64_t matrixBuilds() const { return cMatrixBuilds_->value(); }

  /// Tiled grid walks issued by this engine so far (one per matrix or
  /// streaming reduction; ONE for a whole reduceCellsBatch, however many
  /// grids it spans) — the batching tests assert a batched ScenarioSuite
  /// run issues exactly one instead of one per query.  (Shim over the
  /// "engine.grid_walks" registry counter.)
  std::uint64_t gridWalks() const { return cGridWalks_->value(); }

  const EngineConfig& config() const { return config_; }
  TraceStore& traceStore() { return store_; }

  /// The engine's metrics registry — every counter and phase accumulator
  /// this engine records into.  Counters are cumulative over the engine's
  /// lifetime; per-run views come from report() snapshots + deltaSince.
  obs::MetricsRegistry& metrics() const { return metrics_; }
  /// Per-worker pool utilization collected by this engine's grid walks.
  const obs::WorkerUtil& workerUtil() const { return util_; }
  /// Cumulative snapshot of everything observed so far: registry counters
  /// and phases, worker utilization, and the trace store's hit/miss/entry
  /// counts (exported as "trace_store.{hits,misses,entries}" counters).
  obs::RunReport report() const;

 private:
  /// One rectangle [qBegin, qEnd) x [iBegin, iEnd) of one grid — the unit
  /// of work of walk().
  struct Item {
    GridSpec grid;
    std::size_t qBegin, qEnd, iBegin, iEnd;
  };

  /// The one tiled walk every entry point delegates to, so the
  /// shard-vs-single and batch-vs-single bit-identity contracts rest on a
  /// single body.  Pass 1 hashes each item's program once and resolves
  /// the item's input range on the pool, lowering traces only into the
  /// replay form of models on the packed path; the grouping pass groups
  /// each keyed column's states; pass 2 walks the union of all items'
  /// tiles.  A column of the walk is a trace class when
  /// collapseTraceClasses is on and a single input otherwise, and its rows
  /// are its state groups; witnesses use GLOBAL indices either way, so
  /// shard merges stay byte-exact.
  /// Returns one full-shape accumulator per item — or, given `matrix` (one
  /// item, never collapsed), writes every cell there and returns nothing.
  /// Replay time lands in replay.batched when `batched`, else in
  /// replay.packed/replay.interpreted by the item's path.
  std::vector<core::StreamingMeasures> walk(
      const std::vector<Item>& items, bool batched,
      core::TimingMatrix* matrix = nullptr);

  EngineConfig config_;
  TraceStore store_;

  /// Model-cache key: exact content, compared field for field.
  struct ModelKey {
    std::uint64_t registry;
    std::string platform;
    std::uint64_t program;
    std::string options;
    bool operator==(const ModelKey&) const = default;
  };
  struct CachedModel {
    ModelKey key;
    std::shared_ptr<const TimingModel> model;
  };
  std::mutex modelMutex_;
  std::vector<CachedModel> models_;  ///< most recently used first

  // Observability.  One registry per engine; the hot paths never touch the
  // registry map — the counters and phase accumulators they hit are
  // resolved once here (get-or-create returns stable addresses) and cached
  // as plain pointers.  mutable: recording statistics does not make a
  // const computation less const.
  mutable obs::MetricsRegistry metrics_;
  mutable obs::WorkerUtil util_;
  obs::Counter* cMatrixBuilds_;
  obs::Counter* cGridWalks_;
  obs::Counter* cTiles_;
  obs::Counter* cCells_;
  obs::Counter* cTraceClasses_;
  obs::Counter* cCellsCollapsed_;
  obs::Counter* cStateGroups_;
  obs::Counter* cCellsReplayed_;
  obs::Counter* cModelHits_;
  obs::Counter* cModelMisses_;
  obs::PhaseAccum* pModelMake_;
  obs::PhaseAccum* pResolve_;
  obs::PhaseAccum* pGroup_;
  obs::PhaseAccum* pReplayPacked_;
  obs::PhaseAccum* pReplayInterp_;
  obs::PhaseAccum* pReplayBatched_;
  obs::PhaseAccum* pMerge_;
};

}  // namespace pred::exp
