#pragma once
// shard.h — Process-level sharding of the Q×I grid.
//
// reduceCells already folds tiles into mergeable StreamingMeasures whose
// smallest-index tie-break makes the merge order-independent — so the grid
// can leave the process: a ShardSpec names everything a worker needs to
// evaluate one rectangular sub-grid (platform preset + options, workload
// preset, half-open q/i ranges, engine config) in a line-oriented text wire
// format, and the worker ships back its accumulator through
// StreamingMeasures::serialize().  Because every shard accumulator keeps
// the FULL grid shape with global indices, merging K shards — in any
// order, for any partition — reproduces the single-process reduceCells
// result value-for-value and witness-for-witness: distribution cannot
// change a witness.  tests/shard_test.cpp asserts exactly that.  The one
// fan-out built on it is the grid service (src/grid/): pred-grid-server
// plans a job with planShards, its `pred-shard-worker attach` workers
// evaluate the specs, and it merges the accumulators with mergeShards.
//
// Layering: this header stays below the study layer — specs carry the
// WORKLOAD NAME only, and evaluateShard takes the already-resolved program
// and inputs.  Name resolution against WorkloadRegistry lives in the
// caller, study::gridShardEvaluator, which every grid worker runs.
//
// evaluateShard comes in two forms with one body: on the caller's engine,
// whose model cache and TraceStore may already hold the shard's grid (the
// grid evaluator keeps one such engine per thread), and on a fresh engine
// built from spec.engine.  Either way its RunReport is the call's own
// delta of the engine's cumulative report, so a shard on a warm engine
// reports only what it did.

#include <cstddef>
#include <string>
#include <vector>

#include "core/measures.h"
#include "exp/engine.h"
#include "exp/platform.h"
#include "isa/program.h"
#include "obs/run_report.h"

namespace pred::exp {

/// Everything a worker process needs to evaluate one rectangular shard of
/// a Q×I grid: WHAT to run (platform preset + full options, workload preset
/// name), WHICH cells ([qBegin, qEnd) × [iBegin, iEnd), global indices),
/// and HOW (the worker-side engine config).  Serializable, so a spec can
/// cross a process or host boundary as text.
struct ShardSpec {
  std::string platform;     ///< PlatformRegistry preset name
  std::string workload;     ///< WorkloadRegistry preset name
  PlatformOptions options;  ///< platform knobs (geometries, |Q|, seeds, ...)
  std::size_t qBegin = 0, qEnd = 0;  ///< half-open state range
  std::size_t iBegin = 0, iEnd = 0;  ///< half-open input range
  EngineConfig engine;      ///< threads / tiling / packed-replay toggle
};

/// Renders a spec in the line-oriented wire format ("pred-shard v1", one
/// "key value..." line per field, "end").  Throws std::invalid_argument on
/// unserializable names (empty or containing whitespace — registry presets
/// never do).
std::string serializeShardSpec(const ShardSpec& spec);

/// Inverse of serializeShardSpec.  Strict: unknown keys, missing required
/// fields, malformed numbers, q/i ranges with begin >= end, and trailing
/// content all throw std::invalid_argument with a field-specific message —
/// never UB.  (Unknown PRESET names parse fine and are rejected with the
/// registries' own clear errors at evaluate time.)
ShardSpec parseShardSpec(const std::string& text);

/// Partitions `whole`'s rectangle into `count` disjoint rectangular shards
/// covering it exactly, emitted smallest-index-first (ascending qBegin,
/// then iBegin).  `count` is clamped to [1, cells]; whenever count <= |q
/// range| the split is along q alone (contiguous state bands), otherwise
/// single-state rows are further split along i.  Every returned spec
/// copies platform/workload/options/engine from `whole`.  Throws
/// std::invalid_argument if `whole` has an empty range.
std::vector<ShardSpec> planShards(const ShardSpec& whole, std::size_t count);

/// Compact single-token label of a spec's rectangle, e.g. "q[0,16)xi[0,64)"
/// — the shard identity RunReports and fleet summaries carry.
std::string shardLabel(const ShardSpec& spec);

/// The RESULT identity of a spec: its serialized wire form with every
/// scheduling-only knob (engine threads, tile shape, packed-replay toggle)
/// normalized to the EngineConfig defaults.  Those knobs never change the
/// accumulator bytes — bit-identity across thread counts, tile shapes, and
/// packed-vs-interpreted is asserted throughout the test suite — so two
/// specs with equal canonical text produce byte-identical results.  This
/// is the text the grid result cache fingerprints (grid/fingerprint.h): a
/// query resubmitted at a different worker or thread count is still the
/// same cache entry.
std::string canonicalResultIdentity(const ShardSpec& spec);

/// Evaluates one shard against the already-resolved workload on the
/// caller's engine: takes spec.platform's model for `program` from
/// engine.model (made on a miss, shared on a hit) and folds exactly the
/// spec's cells into a full-shape accumulator
/// (ExperimentEngine::reduceCellsRange).  spec.engine is not read; the
/// engine's own config applies.  A warm engine — one that already holds the
/// model and the traces of the spec's grid — makes nothing and resolves
/// nothing.  Throws std::invalid_argument on unknown platform names or
/// ranges outside the model's grid.
///
/// When `report` is non-null it is overwritten with this call's telemetry,
/// as a DELTA of the engine's cumulative report (deltaSince a snapshot
/// taken on entry): counters, phases (model.make only when this call made
/// the model), worker utilization, platform/workload context, the call's
/// wall time (model lookup included), and one self ShardStat (shardLabel,
/// cells, and this call's trace-store hits/misses) — the unit mergeFleet
/// folds.  Filling it costs two clock reads plus two snapshots; the
/// accumulator is bit-identical either way.
core::StreamingMeasures evaluateShard(ExperimentEngine& engine,
                                      const ShardSpec& spec,
                                      const isa::Program& program,
                                      const std::vector<isa::Input>& inputs,
                                      const PlatformRegistry& platforms,
                                      obs::RunReport* report);

/// The cold form: evaluates on a fresh ExperimentEngine built from
/// spec.engine (delegating to the overload above), so its report covers
/// the whole shard including the model's construction.
core::StreamingMeasures evaluateShard(
    const ShardSpec& spec, const isa::Program& program,
    const std::vector<isa::Input>& inputs,
    const PlatformRegistry& platforms = PlatformRegistry::instance(),
    obs::RunReport* report = nullptr);

}  // namespace pred::exp
