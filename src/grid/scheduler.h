#pragma once
// scheduler.h — Work-stealing shard queue + scheduler with fault-tolerant
// retry.
//
// The scheduling brain and the worker transports are two separate seams:
//
//   ShardQueue            pure policy, no I/O: a multi-job work-stealing
//                         queue where idle workers STEAL the costliest
//                         eligible shard (longest-processing-time-first
//                         self-scheduling — the classic 2x bound on
//                         makespan skew), an EWMA ns/cell cost model
//                         calibrated from RunReport telemetry, and the
//                         bounded retry/backoff policy.  Jobs from
//                         different clients interleave through one queue;
//                         lease tokens route every completion back to the
//                         job (and shard) it belongs to, so concurrent
//                         jobs can never share or reorder each other's
//                         results.
//
//   WorkerChannel         transport: HOW a shard reaches a worker — a
//   (worker_channel.h)    socket worker (spawned child or dial-in) or a
//                         local evaluator thread — behind one poll()-able
//                         interface; WorkerFleet::step is the one poll
//                         loop that multiplexes them.
//
// WorkStealingScheduler composes the two for the standalone single-job
// callers (tests, bench, the in-process example): run(shards, eval)
// builds a fleet of config.workers LocalChannels (in-process evaluator
// threads; a throwing eval is a failed attempt) and turns dispatch ->
// settled? -> WorkerFleet::step until the job settles.
//
// GridServer drives the same ShardQueue/WorkerFleet pair from its
// connection event loop, handing its listener and connection fds to the
// same step, which is what lets spawned and dial-in workers and multiple
// concurrent client jobs share these exact semantics.
//
// Fault tolerance is one story everywhere: a failed attempt requeues the
// shard with exponential backoff until maxAttempts, at which point the
// JOB (only that job) fails loudly.  A dead worker's leases go back in
// the queue, and because shard accumulators merge order-independently, a
// retried shard's contribution is byte-identical to a first-try one —
// fault injection cannot perturb results, only wall time.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/measures.h"
#include "exp/shard.h"
#include "obs/metrics.h"
#include "obs/run_report.h"

namespace pred::grid {

struct SchedulerConfig {
  /// Worker slots (LocalChannel threads in run(); spawned children or
  /// evaluator threads in a GridServer).  Clamped to >= 1 by
  /// WorkStealingScheduler; a GridServer additionally accepts 0 for
  /// attach-only fleets.
  int workers = 2;
  /// Attempts per shard before its job fails (>= 1).
  int maxAttempts = 3;
  /// Spawns per spawned-child slot (initial spawn + respawns) before the
  /// slot is retired (>= 1).
  int maxSpawnsPerSlot = 4;
  /// Base retry backoff; attempt k waits retryBackoffMs * 2^(k-1), capped
  /// at 60 s (the exponent is also clamped, so an arbitrarily large
  /// maxAttempts cannot overflow the shift).
  std::uint64_t retryBackoffMs = 25;
  /// Per-shard wall-time budget for socket workers; a worker that exceeds
  /// it is killed and its shard retried.  0 disables the timeout.
  std::uint64_t shardTimeoutMs = 0;
  /// GridServer without an evaluator: argv prefix of the worker binary
  /// its fixed slots spawn; the fleet appends "attach -".  E.g.
  /// {"./pred-shard-worker"}.
  std::vector<std::string> workerCommand;
  /// When set, the scheduler ticks grid.shards.dispatched / .retried and
  /// grid.worker.spawns / .deaths counters here.
  obs::MetricsRegistry* metrics = nullptr;
};

/// One evaluated shard: the full-shape accumulator plus the telemetry the
/// cost model calibrates from.
struct ShardOutput {
  core::StreamingMeasures accumulator;
  obs::RunReport report;
};

/// In-process shard evaluator.  Throwing (std::exception) marks the
/// attempt failed; the shard is retried per the scheduler's policy.
using ShardEvalFn = std::function<ShardOutput(const exp::ShardSpec&)>;

/// A completed job: the merged accumulator (byte-identical to single-
/// process reduceCells over the whole grid), the merged fleet report, and
/// the fault-tolerance tallies.
struct JobOutcome {
  core::StreamingMeasures merged;
  obs::RunReport fleet;
  std::uint64_t shardCount = 0;
  std::uint64_t retries = 0;       ///< re-queued attempts (all causes)
  std::uint64_t workerDeaths = 0;  ///< worker deaths observed
};

/// The scheduling policy seam: a multi-job shard queue with the LPT
/// cost-model ranking and the retry/backoff bookkeeping — and no I/O at
/// all.  Single-threaded by design; one driver event loop owns it.
class ShardQueue {
 public:
  using Clock = std::chrono::steady_clock;

  struct Policy {
    int maxAttempts = 3;
    std::uint64_t retryBackoffMs = 25;
    obs::MetricsRegistry* metrics = nullptr;
  };

  explicit ShardQueue(Policy policy);

  /// Enqueues a job's shards; returns its job id.  Throws
  /// std::invalid_argument on an empty shard list.
  std::uint64_t addJob(std::vector<exp::ShardSpec> shards);

  /// One leased shard: the token every later completed()/failed()/
  /// abandon() call must echo, plus the spec to dispatch.  The spec
  /// pointer is only valid until the queue is touched again — transports
  /// serialize or copy it during dispatch.
  struct Lease {
    std::uint64_t token = 0;
    const exp::ShardSpec* spec = nullptr;
  };

  /// Steals the best eligible shard at `now` — retried shards first (they
  /// gate job completion), then costliest by the calibrated estimate
  /// (LPT) — across ALL jobs.  Ticks the attempt and the dispatched
  /// counter; nullopt when nothing is eligible yet.
  std::optional<Lease> steal(Clock::time_point now);

  /// The lease's shard completed; its telemetry feeds the cost model.
  void completed(std::uint64_t token, ShardOutput out);
  /// The lease's attempt failed: requeue with backoff, or fail the job
  /// once attempts are exhausted.
  void failed(std::uint64_t token, const std::string& why);
  /// The dispatch never reached a worker (EPIPE to a corpse): undo the
  /// attempt tick and requeue immediately — the shard is not charged for
  /// a dispatch that never arrived.
  void abandon(std::uint64_t token);

  /// Shards waiting or in flight (false = every job settled).
  bool hasWork() const { return !pending_.empty() || !leases_.empty(); }
  std::size_t inFlight() const { return leases_.size(); }
  /// Earliest backoff gate among pending shards (poll-timeout input).
  std::optional<Clock::time_point> earliestGate() const;

  /// A job that finished since the last call: ok + takeOutcome()able, or
  /// failed with `error` (its state is already discarded).
  struct Settled {
    std::uint64_t job = 0;
    bool ok = false;
    std::string error;
  };
  std::vector<Settled> takeSettled();

  /// Merges and returns a settled-ok job's outcome, releasing its state.
  /// workerDeaths is left 0 — deaths are fleet-scoped; drivers fill it.
  JobOutcome takeOutcome(std::uint64_t job);

  /// Fails every unsettled job (the fleet can never dispatch again).
  void failAll(const std::string& why);

  /// The cost model's current estimate (EWMA over completed shards'
  /// report wall time / cells); 0 before any shard completes.
  double nsPerCell() const { return ewmaNsPerCell_; }
  /// Seeds the cost model from a previous queue's estimate.
  void seedNsPerCell(double value);

 private:
  struct Job {
    std::vector<exp::ShardSpec> shards;
    std::vector<int> attempts;  ///< attempts STARTED per shard
    std::vector<std::optional<ShardOutput>> results;
    std::size_t completedCount = 0;
    std::uint64_t retries = 0;
  };
  struct PendingEntry {
    std::uint64_t job = 0;
    std::size_t index = 0;          ///< into the job's shards
    Clock::time_point notBefore{};  ///< backoff gate; epoch = immediately
  };
  struct LeaseState {
    std::uint64_t job = 0;
    std::size_t index = 0;
  };

  double costOf(const Job& job, std::size_t index) const;
  void dropPendingOf(std::uint64_t job);

  Policy policy_;
  std::map<std::uint64_t, Job> jobs_;
  std::vector<PendingEntry> pending_;
  std::map<std::uint64_t, LeaseState> leases_;
  std::vector<Settled> settled_;
  std::uint64_t nextJob_ = 1;
  std::uint64_t nextToken_ = 1;
  /// Cost-model scalar the ranking multiplies cell counts by; 1.0 until
  /// the first shard (or a seed) calibrates it.
  double costScalar_ = 1.0;
  double ewmaNsPerCell_ = 0.0;
};

class WorkStealingScheduler {
 public:
  explicit WorkStealingScheduler(SchedulerConfig config);

  /// Evaluates `shards` on config.workers LocalChannel threads via
  /// `eval`.  Throws std::invalid_argument on an empty shard list and
  /// std::runtime_error when a shard exhausts maxAttempts.
  JobOutcome run(const std::vector<exp::ShardSpec>& shards,
                 const ShardEvalFn& eval);

  /// The cost model's current estimate (EWMA over completed shards'
  /// report wall time / cells); 0 before any shard completes.  Persists
  /// across run() calls, so a server's later jobs start calibrated.
  double estimatedNsPerCell() const;

  const SchedulerConfig& config() const { return config_; }

 private:
  SchedulerConfig config_;
  double ewmaNsPerCell_ = 0.0;
};

}  // namespace pred::grid
