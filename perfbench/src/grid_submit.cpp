// grid-submit: an in-process attach-only GridServer on tcp:127.0.0.1:0
// with a journaled result cache, two runAttachWorker threads (shard engines
// at threads=1), and one client on the calling thread submitting 64x64
// inorder-lru linear-search grids split 8 ways.  Three of every four ops
// recompute with the cache off (the write path); the fourth resubmits the
// previous spec with the cache on (the read path, a hit).

#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "bench.h"
#include "exp/shard.h"
#include "grid/attach_worker.h"
#include "grid/client.h"
#include "grid/server.h"
#include "study/distributed.h"
#include "study/query.h"
#include "study/workloads.h"

namespace perfbench {

namespace grid = pred::grid;

namespace {

constexpr int kPool = 8;
constexpr int kInputs = 64;
constexpr std::size_t kShards = 8;
constexpr int kWorkers = 2;
constexpr const char* kPlatform = "inorder-lru";
const std::vector<study::Measure> kMeasures = {
    study::Measure::Pr, study::Measure::SIPr, study::Measure::IIPr};

/// What the benchmark's wrapper around gridShardEvaluator saw of one shard.
struct ShardRecord {
  std::uint64_t evalNs = 0;
  std::uint64_t resolveNs = 0;
  std::uint64_t reduceNs = 0;  ///< replay and merge phases
  std::uint64_t replayNs = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

/// Shared by the worker threads (which add) and the client thread (which
/// drains); recording is off while untraced ops run.
class ShardRecorder {
 public:
  std::atomic<bool> enabled{false};

  void add(const ShardRecord& r) {
    std::lock_guard<std::mutex> lock(mu_);
    records_.push_back(r);
  }
  std::vector<ShardRecord> drain() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(records_, {});
  }

 private:
  std::mutex mu_;
  std::vector<ShardRecord> records_;
};

grid::ShardEvalFn recordingEvaluator(std::shared_ptr<ShardRecorder> rec) {
  grid::ShardEvalFn inner = study::gridShardEvaluator();
  return [inner, rec](const exp::ShardSpec& spec) {
    if (!rec->enabled.load()) return inner(spec);
    const std::uint64_t t0 = nowNs();
    grid::ShardOutput out = inner(spec);
    ShardRecord r;
    r.evalNs = nowNs() - t0;
    const auto phase = [&](const char* name) -> std::uint64_t {
      const auto it = out.report.phases.find(name);
      return it == out.report.phases.end() ? 0 : it->second.totalNs;
    };
    r.resolveNs = phase("resolve");
    r.replayNs = phase("replay.packed") + phase("replay.interpreted");
    r.reduceNs = r.replayNs + phase("reduce.merge");
    r.hits = out.report.counter("trace_store.hits");
    r.misses = out.report.counter("trace_store.misses");
    rec->add(r);
    return out;
  };
}

/// A scratch directory removed with everything in it on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path) : path_(std::move(path)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// The server thread and the attached worker threads.  The destructor
/// performs the shutdown handshake and joins every thread, on the error
/// paths of the owning workload's constructor too.
class Fleet {
 public:
  Fleet(const std::string& cacheDir, const grid::ShardEvalFn& eval) {
    grid::ServerConfig cfg;
    cfg.endpoint = "tcp:127.0.0.1:0";
    cfg.scheduler.workers = 0;  // attach-only
    cfg.cacheDir = cacheDir;
    server_.emplace(std::move(cfg));
    endpoint_ = server_->boundEndpointText();
    serverThread_ = std::thread([this] {
      try {
        server_->serveForever();
      } catch (const std::exception&) {
        failed_ = true;
      }
    });
    for (int w = 0; w < kWorkers; ++w) {
      workers_.emplace_back([this, eval] {
        try {
          grid::AttachOptions opts;
          opts.concurrency = 1;
          if (grid::runAttachWorker(endpoint_, eval, opts) != 0) {
            failed_ = true;
          }
        } catch (const std::exception&) {
          failed_ = true;
        }
      });
    }
  }

  ~Fleet() {
    try {
      grid::GridClient(endpoint_).shutdownServer();
    } catch (const std::exception&) {
      // The loop is gone already; joining below still reaps the threads.
    }
    serverThread_.join();
    for (auto& t : workers_) t.join();
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  const std::string& endpoint() const { return endpoint_; }
  bool failed() const { return failed_; }

 private:
  std::optional<grid::GridServer> server_;
  std::string endpoint_;
  std::atomic<bool> failed_{false};
  std::thread serverThread_;
  std::vector<std::thread> workers_;
};

std::atomic<std::uint64_t> setupRounds{0};

class GridSubmit final : public Workload {
 public:
  GridSubmit(std::uint64_t seed, const std::string& scratchDir)
      : round_(setupRounds++),
        dir_(scratchDir + "/grid-" + std::to_string(round_)),
        program_(linearSearchProgram()),
        recorder_(std::make_shared<ShardRecorder>()) {
    options_.numStates = 64;
    exp::ExperimentEngine oracle(oracleConfig());
    for (int j = 0; j < kPool; ++j) {
      const auto u = static_cast<std::uint64_t>(j);
      Entry e;
      e.inputs = arrayInputs(program_, 16, kInputs, mixSeed(seed, 4, u), 64, 7);
      const std::string name = "perfbench-ls16x64-s" + std::to_string(seed) +
                               "-r" + std::to_string(round_) + "-" +
                               std::to_string(j);
      study::WorkloadRegistry::instance().add(
          {name, "seeded linear search over 16 words, 64 arrays",
           [program = program_, inputs = e.inputs] {
             return study::WorkloadInstance{program, inputs};
           }});
      const auto model = exp::PlatformRegistry::instance().make(
          kPlatform, program_, options_);
      e.refBytes =
          oracle.reduceCells(*model, program_, e.inputs).serialize();
      e.spec.platform = kPlatform;
      e.spec.workload = name;
      e.spec.options = options_;
      e.spec.qEnd = model->numStates();
      e.spec.iEnd = e.inputs.size();
      e.spec.engine.threads = 1;
      entries_.push_back(std::move(e));
    }

    std::filesystem::create_directories(dir_.path() + "/cache");
    fleet_.emplace(dir_.path() + "/cache", recordingEvaluator(recorder_));
    grid::ClientOptions copts;
    copts.connectTimeoutMs = 10'000;
    copts.ioTimeoutMs = 60'000;
    client_.emplace(fleet_->endpoint(), copts);
    awaitWorkers();
    // Warm-up: one full mix of three recomputes and a hit.
    for (std::uint64_t k = 0; k < 4; ++k) {
      if (!op(k).ok) throw std::runtime_error("grid-submit warm-up mismatch");
    }
    atSetup_ = client_->stats();
  }

  OpOutcome op(std::uint64_t k) override {
    const Plan p = plan(k);
    const grid::JobResult r =
        client_->submit(entries_[p.index].spec, kShards, p.useCache);
    return {verify(r, p), r.cacheHit};
  }

  OpOutcome tracedOp(std::uint64_t k, SpanLog& log,
                     LayerSamples& samples) override {
    const Plan p = plan(k);
    const Entry& e = entries_[p.index];
    std::optional<grid::JobResult> r;
    int submitSpan = -1;
    recorder_->enabled = true;
    {
      ScopedSpan root(log, "op", k);
      ScopedSpan sp(log,
                    p.useCache ? "grid.client.submit_hit"
                               : "grid.client.submit_miss",
                    k, root.index());
      submitSpan = sp.index();
      r.emplace(client_->submit(e.spec, kShards, p.useCache));
    }
    recorder_->enabled = false;
    const std::vector<ShardRecord> shards = recorder_->drain();
    bool ok = verify(*r, p);
    if (fleet_->failed()) ok = false;

    if (!r->cacheHit) {
      const double submitMs = spanMs(log, submitSpan);
      double evalMs = 0, resolveMs = 0, reduceMs = 0, replayNs = 0;
      double hits = 0, misses = 0;
      for (const auto& s : shards) {
        const double ms = static_cast<double>(s.evalNs) / 1e6;
        samples["grid.worker.eval_ms"].push_back(ms);
        evalMs += ms;
        resolveMs += static_cast<double>(s.resolveNs) / 1e6;
        reduceMs += static_cast<double>(s.reduceNs) / 1e6;
        replayNs += static_cast<double>(s.replayNs);
        hits += static_cast<double>(s.hits);
        misses += static_cast<double>(s.misses);
      }
      samples["exp.trace_store.resolve_ms"].push_back(resolveMs);
      samples["exp.engine.reduce_ms"].push_back(reduceMs);
      samples["exp.replay.inorder-lru.ns_per_cell"].push_back(
          replayNs / static_cast<double>(e.spec.qEnd * e.spec.iEnd));
      samples["grid.worker.trace_store.hits"].push_back(hits);
      samples["grid.worker.trace_store.misses"].push_back(misses);
      samples["grid.worker.trace_store.hit_ratio"].push_back(
          hits + misses > 0 ? hits / (hits + misses) : 0.0);
      samples["grid.worker.busy_ratio"].push_back(evalMs /
                                                  (submitMs * kWorkers));
      samples["grid.non_eval_ms"].push_back(submitMs - evalMs / kWorkers);

      // The utilization the server's own fleet report claims for this job:
      // per worker slot, busy time over the report's wall time.
      const obs::RunReport stats = client_->stats();
      double claimed = 0;
      for (const auto& w : stats.workers) {
        if (stats.wallNs > 0) {
          claimed = std::max(claimed, static_cast<double>(w.busyNs) /
                                          static_cast<double>(stats.wallNs));
        }
      }
      samples["grid.fleet.reported_util"].push_back(claimed);

      const double attributed = attributeResolve(log, k, program_, e.inputs);
      samples["exp.trace_store.lookup_overhead_ms"].push_back(
          resolveMs -
          attributed * misses / static_cast<double>(e.inputs.size()));
    }

    // What Query::runDistributed adds around the submit: the client-side
    // model that shapes the Finding, and the Finding itself.
    {
      ScopedSpan root(log, "probe", k);
      std::unique_ptr<exp::TimingModel> model;
      {
        ScopedSpan sp(log, "exp.platform.make", k, root.index());
        model = exp::PlatformRegistry::instance().make(kPlatform, program_,
                                                       options_);
      }
      ScopedSpan sp(log, "study.finding", k, root.index());
      [[maybe_unused]] const study::Finding f =
          study::detail::streamingFinding(
              e.spec.workload, kPlatform, *model, e.inputs.size(),
              core::EvalMode::Exhaustive, kMeasures, r->measures);
    }
    ok = codecProbe(log, k, r->measures) && ok;
    return {ok, r->cacheHit};
  }

  void finishTrace(LayerSamples& samples) override {
    const obs::RunReport now = client_->stats();
    for (const char* name :
         {"grid.cache.hits", "grid.cache.misses", "grid.shards.dispatched",
          "grid.shards.retried", "grid.cache.persist_errors",
          "grid.bad_frames"}) {
      samples[name].push_back(static_cast<double>(
          now.counter(name) - atSetup_.counter(name)));
    }
  }

 private:
  struct Entry {
    std::vector<isa::Input> inputs;
    std::string refBytes;
    exp::ShardSpec spec;
  };
  struct Plan {
    std::size_t index;
    bool useCache;
  };

  /// Ops come in groups of four: three recomputes of consecutive pool
  /// specs, then a cached resubmit of the third.
  static Plan plan(std::uint64_t k) {
    const std::uint64_t group = k / 4, slot = k % 4;
    const bool hit = slot == 3;
    const std::uint64_t index = 3 * group + (hit ? 2 : slot);
    return {static_cast<std::size_t>(index % kPool), hit};
  }

  bool verify(const grid::JobResult& r, const Plan& p) const {
    return r.accumulatorText == entries_[p.index].refBytes &&
           r.cacheHit == p.useCache;
  }

  void awaitWorkers() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (client_->stats().counter("grid.worker.attached") < kWorkers) {
      if (fleet_->failed() || std::chrono::steady_clock::now() > deadline) {
        throw std::runtime_error("grid-submit: workers did not attach");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  std::uint64_t round_;
  ScratchDir dir_;
  isa::Program program_;
  exp::PlatformOptions options_;
  std::shared_ptr<ShardRecorder> recorder_;
  std::vector<Entry> entries_;
  // Destroyed in reverse order: the client's connection closes before the
  // fleet shuts down, and the fleet before its scratch directory goes.
  std::optional<Fleet> fleet_;
  std::optional<grid::GridClient> client_;
  obs::RunReport atSetup_;
};

}  // namespace

std::unique_ptr<Workload> makeGridSubmit(std::uint64_t seed,
                                         const std::string& scratchDir) {
  return std::make_unique<GridSubmit>(seed, scratchDir);
}

}  // namespace perfbench
