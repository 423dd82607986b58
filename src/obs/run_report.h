#pragma once
// run_report.h — The serializable cost explanation of one engine run.
//
// A RunReport is the observability layer's output shape: every counter and
// phase timing the MetricsRegistry collected, per-worker pool utilization,
// and — for grid jobs — one ShardStat per shard so a merged report can
// answer the fleet questions ("which shard was slow?", "how skewed was the
// partition?", "what was each shard's trace-cache hit rate?").
//
// Reports cross process boundaries the same way accumulators do: a strict
// line-oriented text wire format ("pred-report v1" ... "end", core/wire.h
// parsing, std::invalid_argument on any malformed field).  Deterministic
// fields — counters, phase counts, worker/shard structure — serialize
// byte-stably run over run; wall-clock fields obviously do not, so
// normalized() zeroes every *Ns field (and the nondeterministic per-worker
// item split) for byte-stable comparisons in tests and caching keys.
//
// mergeFleet folds the per-shard reports of a grid job into one fleet view
// (the grid scheduler runs it on every job it merges): counters and phases
// sum, shard entries concatenate (each worker run contributes its
// self-entry), and wallNs becomes the slowest shard's wall time — the
// fleet's critical path.  Worker slots concatenate too: each shard
// report's pool slots become fleet slots of their own, so a fleet report
// holds (shards x slots per shard) worker rows, bounded by the job's shard
// count like its shard rows.  A slot is busy only within its own shard's
// wall, and the critical path is at least that wall, so text() never shows
// a slot above 100% utilization.  text() renders the human summary
// `pred-grid-client stats` prints for the server's last job.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace pred::obs {

/// Aggregated timings of one named engine phase (snapshot of a PhaseAccum).
struct PhaseStat {
  std::uint64_t count = 0;    ///< spans closed
  std::uint64_t totalNs = 0;  ///< summed wall time
  std::uint64_t maxNs = 0;    ///< slowest single span
};

/// One pool worker's utilization (snapshot of a WorkerUtil slot).
struct WorkerStat {
  std::uint64_t busyNs = 0;
  std::uint64_t items = 0;
  std::uint64_t participations = 0;
};

/// One shard's contribution to a fleet view.  A worker-process run carries
/// exactly one (itself); a merged fleet report carries one per shard.
struct ShardStat {
  std::string label = "-";  ///< e.g. "q[0,16)xi[0,64)"; no whitespace
  std::uint64_t wallNs = 0;
  std::uint64_t cells = 0;
  std::uint64_t traceHits = 0;
  std::uint64_t traceMisses = 0;

  /// Trace-cache hit rate in [0, 1]; 0 when nothing was looked up.
  double hitRate() const;
};

struct RunReport {
  std::string platform = "-";  ///< context labels; "-" when unbound.  No
  std::string workload = "-";  ///< whitespace (registry names never have
                               ///< any).
  std::uint64_t wallNs = 0;    ///< caller-measured wall time of the run

  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, PhaseStat> phases;
  std::vector<WorkerStat> workers;
  std::vector<ShardStat> shards;

  /// The named counter's value, 0 when absent.
  std::uint64_t counter(const std::string& name) const;

  /// This report minus `before` — the per-run delta of two cumulative
  /// engine snapshots.  Counters, phase counts/totals, and worker fields
  /// subtract (saturating at 0, so a registry reset between snapshots
  /// cannot underflow); phases whose count did not advance are dropped.
  /// A max cannot be subtracted, so maxNs is this report's lifetime max
  /// capped at the delta's totalNs: exact when the max rose during the
  /// window, an upper bound on the window's slowest span otherwise.
  /// Labels, wallNs, and shards keep this report's values.
  RunReport deltaSince(const RunReport& before) const;

  /// Copy with every nondeterministic field zeroed: wallNs, phase
  /// totalNs/maxNs, worker busyNs/items/participations (which worker pulls
  /// which tile varies run to run; only the worker COUNT is stable), and
  /// shard wallNs.  What remains is byte-stable across identical runs —
  /// asserted in tests/obs_test.cpp.
  RunReport normalized() const;

  /// Strict line-oriented text wire format ("pred-report v1" ... "end");
  /// everything round-trips exactly.  Throws std::invalid_argument on
  /// labels or metric names containing whitespace.
  std::string serialize() const;
  /// Inverse of serialize().  Throws std::invalid_argument with a
  /// field-specific message on malformed input; never UB.
  static RunReport deserialize(const std::string& text);

  /// JSON object mirroring the wire fields plus derived rates.
  std::string json() const;
  /// Human-readable multi-line summary: context, wall time, phase table
  /// with shares, worker utilization, and — when shards are present — the
  /// fleet view (per-shard rows, slowest shard, wall-time skew ratio).
  std::string text() const;
};

/// Assembles a snapshot RunReport from a registry plus the engine-side
/// extras (worker utilization; callers add trace-store counters and
/// context).
RunReport snapshotReport(const MetricsRegistry& metrics,
                         const WorkerUtil& workers);

/// Folds per-shard reports into the fleet view (see file comment).  Order
/// does not matter.  Throws std::invalid_argument on empty input.
RunReport mergeFleet(const std::vector<RunReport>& parts);

}  // namespace pred::obs
