#include "grid/scheduler.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "exp/engine.h"
#include "grid/worker_channel.h"

namespace pred::grid {

namespace {

std::uint64_t cellsOf(const exp::ShardSpec& spec) {
  return static_cast<std::uint64_t>(spec.qEnd - spec.qBegin) *
         static_cast<std::uint64_t>(spec.iEnd - spec.iBegin);
}

}  // namespace

// -------------------------------------------------------------- ShardQueue

ShardQueue::ShardQueue(Policy policy) : policy_(policy) {
  if (policy_.maxAttempts < 1) policy_.maxAttempts = 1;
}

std::uint64_t ShardQueue::addJob(std::vector<exp::ShardSpec> shards) {
  if (shards.empty())
    throw std::invalid_argument("grid scheduler: empty shard list");
  const std::uint64_t id = nextJob_++;
  Job job;
  job.attempts.assign(shards.size(), 0);
  job.results.resize(shards.size());
  job.shards = std::move(shards);
  for (std::size_t i = 0; i < job.shards.size(); ++i)
    pending_.push_back({id, i, Clock::time_point{}});
  jobs_.emplace(id, std::move(job));
  return id;
}

double ShardQueue::costOf(const Job& job, std::size_t index) const {
  // The telemetry feedback enters the ranking here; with a single global
  // ns/cell scalar the ordering equals LPT by cells, and a per-shard
  // estimate (e.g. keyed by platform) would slot in at this seam without
  // touching steal().
  return static_cast<double>(cellsOf(job.shards[index])) * costScalar_;
}

std::optional<ShardQueue::Lease> ShardQueue::steal(Clock::time_point now) {
  constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t best = npos;
  for (std::size_t k = 0; k < pending_.size(); ++k) {
    if (pending_[k].notBefore > now) continue;
    if (best == npos) {
      best = k;
      continue;
    }
    const PendingEntry& pb = pending_[best];
    const PendingEntry& pk = pending_[k];
    const Job& jb = jobs_.at(pb.job);
    const Job& jk = jobs_.at(pk.job);
    const int ab = jb.attempts[pb.index], ak = jk.attempts[pk.index];
    if (ak != ab ? ak > ab : costOf(jk, pk.index) > costOf(jb, pb.index))
      best = k;
  }
  if (best == npos) return std::nullopt;
  const PendingEntry entry = pending_[best];
  pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(best));
  Job& job = jobs_.at(entry.job);
  ++job.attempts[entry.index];
  if (policy_.metrics)
    policy_.metrics->counter("grid.shards.dispatched").add();
  const std::uint64_t token = nextToken_++;
  leases_.emplace(token, LeaseState{entry.job, entry.index});
  return Lease{token, &job.shards[entry.index]};
}

void ShardQueue::completed(std::uint64_t token, ShardOutput out) {
  const auto it = leases_.find(token);
  if (it == leases_.end()) return;  // lease of an already-settled job
  const LeaseState ls = it->second;
  leases_.erase(it);
  const auto jit = jobs_.find(ls.job);
  if (jit == jobs_.end()) return;
  Job& job = jit->second;
  const std::uint64_t cells = cellsOf(job.shards[ls.index]);
  if (out.report.wallNs > 0 && cells > 0) {
    const double sample = static_cast<double>(out.report.wallNs) /
                          static_cast<double>(cells);
    ewmaNsPerCell_ = ewmaNsPerCell_ == 0.0
                         ? sample
                         : 0.7 * ewmaNsPerCell_ + 0.3 * sample;
    costScalar_ = ewmaNsPerCell_;
  }
  job.results[ls.index].emplace(std::move(out));
  ++job.completedCount;
  if (job.completedCount == job.shards.size())
    settled_.push_back({ls.job, true, {}});
}

void ShardQueue::failed(std::uint64_t token, const std::string& why) {
  const auto it = leases_.find(token);
  if (it == leases_.end()) return;  // lease of an already-settled job
  const LeaseState ls = it->second;
  leases_.erase(it);
  const auto jit = jobs_.find(ls.job);
  if (jit == jobs_.end()) return;
  Job& job = jit->second;
  const int made = job.attempts[ls.index];
  if (made >= policy_.maxAttempts) {
    // Only THIS job fails; its state is discarded immediately and any
    // leases its other shards still hold resolve as no-ops later.
    Settled settled;
    settled.job = ls.job;
    settled.ok = false;
    settled.error = "grid shard " + exp::shardLabel(job.shards[ls.index]) +
                    " failed after " + std::to_string(made) +
                    " attempt(s): " + why;
    settled_.push_back(std::move(settled));
    jobs_.erase(jit);
    dropPendingOf(ls.job);
    for (auto lit = leases_.begin(); lit != leases_.end();) {
      if (lit->second.job == ls.job)
        lit = leases_.erase(lit);
      else
        ++lit;
    }
    return;
  }
  // maxAttempts is an unbounded user flag, so the exponent must be clamped
  // (a shift count >= 64 is UB) and the wait capped at a sane ceiling.
  constexpr std::uint64_t kMaxBackoffMs = 60'000;
  const int shift = std::min(made > 0 ? made - 1 : 0, 20);
  const std::uint64_t backoffMs =
      policy_.retryBackoffMs > (kMaxBackoffMs >> shift)
          ? kMaxBackoffMs
          : policy_.retryBackoffMs << shift;
  pending_.push_back(
      {ls.job, ls.index, Clock::now() + std::chrono::milliseconds(backoffMs)});
  ++job.retries;
  if (policy_.metrics) policy_.metrics->counter("grid.shards.retried").add();
}

void ShardQueue::abandon(std::uint64_t token) {
  const auto it = leases_.find(token);
  if (it == leases_.end()) return;
  const LeaseState ls = it->second;
  leases_.erase(it);
  const auto jit = jobs_.find(ls.job);
  if (jit == jobs_.end()) return;
  --jit->second.attempts[ls.index];
  pending_.push_back({ls.job, ls.index, Clock::time_point{}});
}

std::optional<ShardQueue::Clock::time_point> ShardQueue::earliestGate()
    const {
  std::optional<Clock::time_point> t;
  for (const PendingEntry& p : pending_)
    if (!t || p.notBefore < *t) t = p.notBefore;
  return t;
}

std::vector<ShardQueue::Settled> ShardQueue::takeSettled() {
  std::vector<Settled> out;
  out.swap(settled_);
  return out;
}

JobOutcome ShardQueue::takeOutcome(std::uint64_t jobId) {
  const auto jit = jobs_.find(jobId);
  if (jit == jobs_.end() ||
      jit->second.completedCount != jit->second.shards.size())
    throw std::logic_error("grid queue: takeOutcome on an unsettled job");
  Job& job = jit->second;
  std::vector<core::StreamingMeasures> accs;
  std::vector<obs::RunReport> reports;
  accs.reserve(job.results.size());
  reports.reserve(job.results.size());
  for (std::optional<ShardOutput>& r : job.results) {
    accs.push_back(std::move(r->accumulator));
    reports.push_back(std::move(r->report));
  }
  core::StreamingMeasures merged =
      exp::ExperimentEngine::mergeShards(std::move(accs));
  obs::RunReport fleet = obs::mergeFleet(reports);
  JobOutcome outcome{std::move(merged), std::move(fleet),
                     job.results.size(), job.retries, 0};
  jobs_.erase(jit);
  return outcome;
}

void ShardQueue::failAll(const std::string& why) {
  std::vector<std::uint64_t> doomed;
  for (const auto& [id, job] : jobs_)
    if (job.completedCount != job.shards.size()) doomed.push_back(id);
  for (const std::uint64_t id : doomed) {
    settled_.push_back({id, false, why});
    jobs_.erase(id);
    dropPendingOf(id);
  }
  for (auto lit = leases_.begin(); lit != leases_.end();) {
    if (jobs_.find(lit->second.job) == jobs_.end())
      lit = leases_.erase(lit);
    else
      ++lit;
  }
}

void ShardQueue::seedNsPerCell(double value) {
  if (value > 0.0) {
    ewmaNsPerCell_ = value;
    costScalar_ = value;
  }
}

void ShardQueue::dropPendingOf(std::uint64_t job) {
  pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                [job](const PendingEntry& p) {
                                  return p.job == job;
                                }),
                 pending_.end());
}

// --------------------------------------------------- WorkStealingScheduler

WorkStealingScheduler::WorkStealingScheduler(SchedulerConfig config)
    : config_(std::move(config)) {
  if (config_.workers < 1) config_.workers = 1;
  if (config_.maxAttempts < 1) config_.maxAttempts = 1;
  if (config_.maxSpawnsPerSlot < 1) config_.maxSpawnsPerSlot = 1;
}

double WorkStealingScheduler::estimatedNsPerCell() const {
  return ewmaNsPerCell_;
}

JobOutcome WorkStealingScheduler::run(
    const std::vector<exp::ShardSpec>& shards, const ShardEvalFn& eval) {
  if (shards.empty())
    throw std::invalid_argument("grid scheduler: empty shard list");
  if (!eval) throw std::invalid_argument("grid scheduler: null evaluator");
  FleetConfig fc;
  fc.localSlots = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(config_.workers), shards.size()));
  fc.eval = eval;
  fc.metrics = config_.metrics;
  WorkerFleet fleet(fc);
  ShardQueue queue(ShardQueue::Policy{config_.maxAttempts,
                                      config_.retryBackoffMs,
                                      config_.metrics});
  queue.seedNsPerCell(ewmaNsPerCell_);
  const std::uint64_t job = queue.addJob(shards);

  try {
    std::vector<pollfd> ownFds;  // stays empty: only channels to poll
    for (;;) {
      fleet.dispatch(queue);
      const std::vector<ShardQueue::Settled> settled = queue.takeSettled();
      if (!settled.empty()) {
        const ShardQueue::Settled& s = settled.front();
        if (!s.ok) throw std::runtime_error(s.error);
        if (queue.nsPerCell() > 0.0) ewmaNsPerCell_ = queue.nsPerCell();
        fleet.shutdownAll();
        JobOutcome outcome = queue.takeOutcome(job);
        outcome.workerDeaths = fleet.deaths();
        return outcome;
      }
      fleet.step(queue, ownFds);
    }
  } catch (...) {
    // Whatever the cost model learned before the failure still counts.
    if (queue.nsPerCell() > 0.0) ewmaNsPerCell_ = queue.nsPerCell();
    fleet.killAll();
    throw;
  }
}

}  // namespace pred::grid
