// grid_test.cpp — The gate for the grid service (src/grid/): the framed
// wire protocol must be strict under fuzzing (truncated length prefixes
// are "need more bytes", oversize and garbage headers throw BEFORE any
// payload allocation, nothing hangs); job fingerprints must be invariant
// under scheduling knobs and sensitive to everything result-affecting;
// the LRU result cache must count hits/misses/evictions exactly; the
// work-stealing scheduler must reproduce single-process reduceCells bytes
// at every worker count, under injected eval failures, and fail loudly
// once attempts are exhausted; and a full in-process server/client round
// trip must serve the second submission from the cache with identical
// bytes while surviving garbage connections — the subprocess flavor of
// the same story is scripts/grid_run.sh (ctest grid_subprocess_smoke).

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <chrono>

#include "core/measures.h"
#include "exp/engine.h"
#include "exp/platform.h"
#include "exp/shard.h"
#include "grid/attach_worker.h"
#include "grid/cache.h"
#include "grid/client.h"
#include "grid/fingerprint.h"
#include "grid/net.h"
#include "grid/protocol.h"
#include "grid/scheduler.h"
#include "grid/server.h"
#include "study/distributed.h"
#include "study/query.h"
#include "study/workloads.h"
#include "witness_expect.h"

namespace pred {
namespace {

using core::StreamingMeasures;
using exp::ShardSpec;

// ------------------------------------------------------------ test helpers

/// A fresh, collision-free unix socket path under /tmp (unix socket paths
/// must stay short, so no mkdtemp nesting).
std::string uniqueSocketPath() {
  static std::atomic<int> counter{0};
  return "/tmp/pred-grid-test-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// The small grid every scheduler/server test evaluates: 8 states of
/// inorder-lru over bubblesort-8 (fast, and the same shape shard_test.cpp
/// gates merge identity on).
struct TestGrid {
  ShardSpec whole;
  std::string singleBytes;  ///< single-process reduceCells, serialized
};

TestGrid makeTestGrid() {
  exp::PlatformOptions options;
  options.numStates = 8;
  const auto w = study::WorkloadRegistry::instance().make("bubblesort-8");
  const auto model = exp::PlatformRegistry::instance().make(
      "inorder-lru", w.program, options);
  exp::ExperimentEngine engine;

  TestGrid g;
  g.whole.platform = "inorder-lru";
  g.whole.workload = "bubblesort-8";
  g.whole.options = options;
  g.whole.qEnd = model->numStates();
  g.whole.iEnd = w.inputs.size();
  g.singleBytes = engine.reduceCells(*model, w.program, w.inputs).serialize();
  return g;
}

/// An in-process GridServer on its own unix socket with serveForever on a
/// background thread; stop() (or the destructor) performs the shutdown
/// handshake exactly once.
class InProcessServer {
 public:
  /// `configure` may adjust the config last (e.g. spawned worker slots
  /// instead of the in-process evaluator).
  explicit InProcessServer(
      int workers = 2, std::size_t cacheEntries = 64,
      bool workerListen = false,
      const std::function<void(grid::ServerConfig&)>& configure = {}) {
    path_ = uniqueSocketPath();
    endpointText_ = "unix:" + path_;
    grid::ServerConfig cfg;
    cfg.endpoint = endpointText_;
    cfg.scheduler.workers = workers;
    cfg.scheduler.retryBackoffMs = 1;
    cfg.cacheEntries = cacheEntries;
    cfg.eval = study::gridShardEvaluator();
    if (workerListen) {
      workerPath_ = uniqueSocketPath();
      cfg.workerEndpoint = "unix:" + workerPath_;
    }
    if (configure) configure(cfg);
    server_.emplace(std::move(cfg));
    thread_ = std::thread([this] { server_->serveForever(); });
  }

  ~InProcessServer() {
    stop();
    ::unlink(path_.c_str());
    if (!workerPath_.empty()) ::unlink(workerPath_.c_str());
  }

  const std::string& endpoint() const { return endpointText_; }
  std::string workerEndpoint() const { return "unix:" + workerPath_; }
  grid::GridServer& server() { return *server_; }

  /// Spins until `name` reaches at least `least` (the concurrent server
  /// ticks counters from its own thread), failing after ~5 s.
  void awaitCounter(const std::string& name, std::uint64_t least) {
    for (int spins = 0; spins < 200; ++spins) {
      for (const auto& [n, v] : server_->metrics().counterValues())
        if (n == name && v >= least) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    FAIL() << "counter " << name << " never reached " << least;
  }

  /// Shutdown handshake + join.  The server handles connections
  /// SEQUENTIALLY, so every test-owned GridClient must be destroyed (its
  /// connection closed) before this runs — declare clients after the
  /// fixture and let scope order do it.
  void stop() {
    if (!thread_.joinable()) return;
    grid::GridClient(endpointText_).shutdownServer();
    thread_.join();
  }

 private:
  std::string path_;
  std::string workerPath_;
  std::string endpointText_;
  std::optional<grid::GridServer> server_;
  std::thread thread_;
};

// --------------------------------------------------------------- framing

grid::Frame frameOf(grid::FrameType type, std::string payload) {
  grid::Frame f;
  f.type = type;
  f.payload = std::move(payload);
  return f;
}

TEST(GridFrame, RoundTripsEveryTypeAndDecodesSequentially) {
  const std::vector<grid::FrameType> types = {
      grid::FrameType::Submit,       grid::FrameType::Result,
      grid::FrameType::Error,        grid::FrameType::StatsRequest,
      grid::FrameType::StatsReply,   grid::FrameType::Shutdown,
      grid::FrameType::ShutdownAck,  grid::FrameType::WorkerHello,
      grid::FrameType::WorkerWelcome, grid::FrameType::ShardAssign,
      grid::FrameType::ShardDone,    grid::FrameType::Heartbeat,
  };
  // All frames concatenated into one stream: the incremental decoder must
  // walk them in order, advancing the offset past each.
  std::string stream;
  for (std::size_t i = 0; i < types.size(); ++i) {
    stream += grid::encodeFrame(
        frameOf(types[i], "payload-" + std::to_string(i)));
  }
  std::size_t offset = 0;
  for (std::size_t i = 0; i < types.size(); ++i) {
    const auto f = grid::decodeFrame(stream, offset);
    ASSERT_TRUE(f.has_value()) << i;
    EXPECT_EQ(f->type, types[i]) << i;
    EXPECT_EQ(f->payload, "payload-" + std::to_string(i)) << i;
  }
  EXPECT_EQ(offset, stream.size());
  EXPECT_FALSE(grid::decodeFrame(stream, offset).has_value());

  // Empty payloads round-trip too (Stats/Shutdown are header-only).
  std::size_t o = 0;
  const auto empty = grid::decodeFrame(
      grid::encodeFrame(frameOf(grid::FrameType::Shutdown, "")), o);
  ASSERT_TRUE(empty.has_value());
  EXPECT_EQ(empty->payload, "");
}

TEST(GridFrame, EveryTruncatedPrefixIsNeedMoreBytesNotAnError) {
  const std::string whole =
      grid::encodeFrame(frameOf(grid::FrameType::Submit, "some payload"));
  // A truncated prefix of a valid frame — cut at EVERY byte boundary,
  // inside the header and inside the payload — must read as "incomplete",
  // never as malformed, and must not advance the offset.
  for (std::size_t cut = 0; cut < whole.size(); ++cut) {
    std::size_t offset = 0;
    const auto f = grid::decodeFrame(
        std::string_view(whole).substr(0, cut), offset);
    EXPECT_FALSE(f.has_value()) << "cut=" << cut;
    EXPECT_EQ(offset, 0u) << "cut=" << cut;
  }
}

TEST(GridFrame, MalformedHeadersThrowBeforeAnyPayloadArrives) {
  const auto decodes = [](std::string bytes) {
    std::size_t offset = 0;
    return grid::decodeFrame(bytes, offset);
  };
  const std::string good =
      grid::encodeFrame(frameOf(grid::FrameType::Error, "x"));

  // Bad magic.
  std::string badMagic = good;
  badMagic[0] = 'X';
  EXPECT_THROW(decodes(badMagic), std::invalid_argument);

  // Unknown protocol version.
  std::string badVersion = good;
  badVersion[2] = static_cast<char>(grid::kProtocolVersion + 1);
  EXPECT_THROW(decodes(badVersion), std::invalid_argument);

  // Unknown frame types on both sides of the valid range, and the two
  // retired type bytes inside it.
  std::string badType = good;
  badType[3] = 0;
  EXPECT_THROW(decodes(badType), std::invalid_argument);
  badType[3] = 42;
  EXPECT_THROW(decodes(badType), std::invalid_argument);
  badType[3] = 8;
  EXPECT_THROW(decodes(badType), std::invalid_argument);
  badType[3] = 9;
  EXPECT_THROW(decodes(badType), std::invalid_argument);

  // An adversarial length (kMaxFramePayload + 1, and the full 4 GiB)
  // must throw from the bare 8-byte header — the payload NEVER follows,
  // so a decoder that tried to allocate or wait for it would hang/balloon.
  const auto headerWithLength = [](std::uint32_t n) {
    std::string h = "PG";
    h.push_back(static_cast<char>(grid::kProtocolVersion));
    h.push_back(static_cast<char>(grid::FrameType::Submit));
    for (int shift = 24; shift >= 0; shift -= 8) {
      h.push_back(static_cast<char>((n >> shift) & 0xff));
    }
    return h;
  };
  EXPECT_THROW(
      decodes(headerWithLength(
          static_cast<std::uint32_t>(grid::kMaxFramePayload) + 1)),
      std::invalid_argument);
  EXPECT_THROW(decodes(headerWithLength(0xffffffffu)),
               std::invalid_argument);
  // The cap itself is legal as a LENGTH — header-only, so: incomplete.
  std::size_t offset = 0;
  EXPECT_FALSE(
      grid::decodeFrame(
          headerWithLength(static_cast<std::uint32_t>(grid::kMaxFramePayload)),
          offset)
          .has_value());
}

TEST(GridFrame, RandomGarbageEitherThrowsOrWantsMoreNeverHangs) {
  // Deterministic fuzz: random byte strings must hit exactly one of two
  // outcomes — std::invalid_argument, or "need more bytes" — and when a
  // frame IS (astronomically unlikely) valid, the offset must advance.
  std::mt19937 rng(20110314);  // DATE'11
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<std::size_t> len(0, 64);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string bytes(len(rng), '\0');
    for (auto& c : bytes) c = static_cast<char>(byte(rng));
    std::size_t offset = 0;
    try {
      const auto f = grid::decodeFrame(bytes, offset);
      if (f.has_value()) {
        EXPECT_GT(offset, 0u);
        EXPECT_LE(offset, bytes.size());
      } else {
        EXPECT_EQ(offset, 0u);
      }
    } catch (const std::invalid_argument&) {
      // strict rejection: fine.
    }
  }
}

TEST(GridFrame, FdReaderHandlesCleanEofAndThrowsOnTruncation) {
  const auto pipeWith = [](const std::string& bytes) {
    int fds[2];
    EXPECT_EQ(::pipe(fds), 0);
    grid::net::writeAll(fds[1], bytes.data(), bytes.size());
    ::close(fds[1]);  // EOF after `bytes`
    return grid::net::Fd(fds[0]);
  };

  // A whole frame, then clean EOF: one successful read, then false.
  const std::string whole =
      grid::encodeFrame(frameOf(grid::FrameType::ShardAssign, "spec"));
  {
    const auto fd = pipeWith(whole);
    grid::Frame f;
    ASSERT_TRUE(grid::readFrame(fd.get(), f));
    EXPECT_EQ(f.payload, "spec");
    EXPECT_FALSE(grid::readFrame(fd.get(), f));
  }
  // EOF inside the header: truncation, not clean EOF.
  {
    const auto fd = pipeWith(whole.substr(0, 5));
    grid::Frame f;
    EXPECT_THROW(grid::readFrame(fd.get(), f), std::runtime_error);
  }
  // A header promising payload bytes that never arrive: truncation.
  {
    const auto fd = pipeWith(whole.substr(0, grid::kFrameHeaderBytes + 1));
    grid::Frame f;
    EXPECT_THROW(grid::readFrame(fd.get(), f), std::runtime_error);
  }
}

// -------------------------------------------------------- payload codecs

TEST(GridPayloads, JobRequestRoundTripsAndRejectsGarbage) {
  grid::JobRequest req;
  req.spec.platform = "ooo-fifo";
  req.spec.workload = "bubblesort-8";
  req.spec.options.numStates = 6;
  req.spec.qBegin = 1;
  req.spec.qEnd = 5;
  req.spec.iBegin = 2;
  req.spec.iEnd = 9;
  req.spec.engine.threads = 3;
  req.shards = 7;
  req.useCache = false;

  const auto back = grid::parseJobRequest(grid::encodeJobRequest(req));
  EXPECT_EQ(exp::serializeShardSpec(back.spec),
            exp::serializeShardSpec(req.spec));
  EXPECT_EQ(back.shards, 7u);
  EXPECT_FALSE(back.useCache);

  for (const char* bad :
       {"", "not a job", "pred-job v1\n", "shards 4\nuse-cache 1\n"}) {
    EXPECT_THROW(grid::parseJobRequest(bad), std::invalid_argument) << bad;
  }
}

TEST(GridPayloads, JobResultMsgRoundTripsAndRejectsGarbage) {
  grid::JobResultMsg msg;
  msg.cacheHit = true;
  msg.fingerprint = "00deadbeef001234";
  msg.accumulatorText = "line one\nline two\n";

  const auto back = grid::parseJobResultMsg(grid::encodeJobResultMsg(msg));
  EXPECT_TRUE(back.cacheHit);
  EXPECT_EQ(back.fingerprint, msg.fingerprint);
  EXPECT_EQ(back.accumulatorText, msg.accumulatorText);

  for (const char* bad : {"", "garbage", "cache-hit maybe\n"}) {
    EXPECT_THROW(grid::parseJobResultMsg(bad), std::invalid_argument) << bad;
  }
}

TEST(GridPayloads, WorkerHelloMsgRoundTripsAndRejectsGarbage) {
  grid::WorkerHelloMsg msg;
  msg.salt = "some-build-salt";
  msg.concurrency = 4;

  const auto back =
      grid::parseWorkerHelloMsg(grid::encodeWorkerHelloMsg(msg));
  EXPECT_EQ(back.salt, msg.salt);
  EXPECT_EQ(back.concurrency, 4u);

  for (const char* bad :
       {"", "not a hello", "pred-grid-hello v1\n",
        "pred-grid-hello v1\nsalt s\nconcurrency 0\n",
        "pred-grid-hello v1\nsalt s\nconcurrency 2\ntrailing"}) {
    EXPECT_THROW(grid::parseWorkerHelloMsg(bad), std::invalid_argument)
        << bad;
  }
  // Whitespace in the salt would corrupt the line framing: refused at
  // encode time, before it ever reaches a wire.
  msg.salt = "two words";
  EXPECT_THROW(grid::encodeWorkerHelloMsg(msg), std::invalid_argument);
}

TEST(GridPayloads, ShardAssignMsgRoundTripsAndRejectsGarbage) {
  grid::ShardAssignMsg msg;
  msg.id = 7;
  msg.spec.platform = "inorder-lru";
  msg.spec.workload = "bubblesort-8";
  msg.spec.options.numStates = 8;
  msg.spec.qBegin = 1;
  msg.spec.qEnd = 5;
  msg.spec.iBegin = 0;
  msg.spec.iEnd = 3;

  const auto back =
      grid::parseShardAssignMsg(grid::encodeShardAssignMsg(msg));
  EXPECT_EQ(back.id, 7u);
  EXPECT_EQ(exp::serializeShardSpec(back.spec),
            exp::serializeShardSpec(msg.spec));

  for (const char* bad :
       {"", "garbage", "pred-grid-assign v1\n",
        "pred-grid-assign v1\nid 3\nnot a shard spec"}) {
    EXPECT_THROW(grid::parseShardAssignMsg(bad), std::invalid_argument)
        << bad;
  }
}

TEST(GridPayloads, ShardDoneMsgRoundTripsBothOutcomes) {
  grid::ShardDoneMsg ok;
  ok.id = 11;
  ok.ok = true;
  ok.reportText = "report bytes\nwith newlines\n";
  ok.accumulatorText = "acc bytes\nmore\n";
  const auto backOk = grid::parseShardDoneMsg(grid::encodeShardDoneMsg(ok));
  EXPECT_EQ(backOk.id, 11u);
  EXPECT_TRUE(backOk.ok);
  EXPECT_EQ(backOk.reportText, ok.reportText);
  EXPECT_EQ(backOk.accumulatorText, ok.accumulatorText);

  grid::ShardDoneMsg fail;
  fail.id = 12;
  fail.ok = false;
  fail.errorText = "unknown platform: xyz";
  const auto backFail =
      grid::parseShardDoneMsg(grid::encodeShardDoneMsg(fail));
  EXPECT_EQ(backFail.id, 12u);
  EXPECT_FALSE(backFail.ok);
  EXPECT_EQ(backFail.errorText, fail.errorText);

  for (const char* bad :
       {"", "garbage", "pred-grid-done v1\nid 1\nok 1\nreport 999\nshort"}) {
    EXPECT_THROW(grid::parseShardDoneMsg(bad), std::invalid_argument) << bad;
  }
}

// ----------------------------------------------------------- fingerprint

TEST(GridFingerprint, Fnv1a64MatchesPublishedVectors) {
  // Published FNV-1a 64 test vectors — the hash must be THE fnv1a, not a
  // lookalike, so fingerprints stay stable across builds and machines.
  EXPECT_EQ(grid::fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(grid::fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(grid::fnv1a64("foobar"), 0x85944171f73967e8ull);
  // Chaining: hashing "ab" equals hashing "b" seeded with hash("a").
  EXPECT_EQ(grid::fnv1a64("b", grid::fnv1a64("a")), grid::fnv1a64("ab"));

  EXPECT_EQ(grid::fingerprintHex(0), "0000000000000000");
  EXPECT_EQ(grid::fingerprintHex(0xdeadbeefull), "00000000deadbeef");
  EXPECT_EQ(grid::fingerprintHex(0xffffffffffffffffull),
            "ffffffffffffffff");
}

TEST(GridFingerprint, SchedulingKnobsDoNotPerturbTheAddress) {
  ShardSpec base;
  base.platform = "inorder-lru";
  base.workload = "bubblesort-8";
  base.options.numStates = 8;
  base.qEnd = 8;
  base.iEnd = 40;
  const std::string fp = grid::jobFingerprint(base);
  ASSERT_EQ(fp.size(), 16u);
  for (const char c : fp) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << fp;
  }

  // Scheduling-only engine knobs must map to the SAME address — they pick
  // how the grid is computed, never what the bytes are.
  ShardSpec knobs = base;
  knobs.engine.threads = 7;
  knobs.engine.tileStates = 16;
  knobs.engine.tileInputs = 2;
  knobs.engine.usePackedReplay = !knobs.engine.usePackedReplay;
  knobs.engine.collapseTraceClasses = !knobs.engine.collapseTraceClasses;
  EXPECT_EQ(grid::jobFingerprint(knobs), fp);

  // Everything result-affecting must move it.
  ShardSpec other = base;
  other.platform = "ooo-fifo";
  EXPECT_NE(grid::jobFingerprint(other), fp);
  other = base;
  other.workload = "linearsearch-12";
  EXPECT_NE(grid::jobFingerprint(other), fp);
  other = base;
  other.qEnd = 7;
  EXPECT_NE(grid::jobFingerprint(other), fp);
  other = base;
  other.iBegin = 1;
  EXPECT_NE(grid::jobFingerprint(other), fp);
  other = base;
  other.options.numStates = 6;
  EXPECT_NE(grid::jobFingerprint(other), fp);
}

// ----------------------------------------------------------- result cache

TEST(GridCache, CountsHitsMissesAndEvictsLeastRecentlyUsed) {
  grid::ResultCache cache(2);
  EXPECT_EQ(cache.maxEntries(), 2u);
  EXPECT_FALSE(cache.lookup("a").has_value());
  EXPECT_EQ(cache.misses(), 1u);

  cache.insert("a", "bytes-a");
  cache.insert("b", "bytes-b");
  EXPECT_EQ(cache.size(), 2u);

  // Touch "a" so "b" becomes the LRU entry; inserting "c" must evict "b".
  EXPECT_EQ(cache.lookup("a").value(), "bytes-a");
  cache.insert("c", "bytes-c");
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.lookup("b").has_value());
  EXPECT_EQ(cache.lookup("a").value(), "bytes-a");
  EXPECT_EQ(cache.lookup("c").value(), "bytes-c");
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 2u);

  // Re-inserting an existing key replaces bytes without growing the cache.
  cache.insert("a", "bytes-a2");
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.lookup("a").value(), "bytes-a2");
}

TEST(GridCache, ZeroEntriesDisablesCachingEntirely) {
  grid::ResultCache cache(0);
  cache.insert("k", "v");
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup("k").has_value());
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 1u);
}

// --------------------------------------------------------- grid evaluator

/// What a worker with nothing resident computes for `spec`: a fresh
/// engine's evaluateShard.
std::string freshBytes(const study::WorkloadRegistry& workloads,
                       const exp::PlatformRegistry& platforms,
                       const ShardSpec& spec) {
  const auto w = workloads.make(spec.workload);
  return exp::evaluateShard(spec, w.program, w.inputs, platforms)
      .serialize();
}

/// Whether an evaluator call built its grid — made the model and resolved
/// traces — instead of finding it resident.
bool rebuilt(const grid::ShardOutput& out) {
  return out.report.counter("engine.model_cache.misses") == 1 &&
         out.report.counter("engine.model_cache.hits") == 0 &&
         out.report.counter("trace_store.misses") > 0;
}

ShardSpec shardOf(const std::string& workload, const std::string& platform,
                  const exp::PlatformOptions& options, std::size_t qBegin,
                  std::size_t qEnd, std::size_t iBegin, std::size_t iEnd) {
  ShardSpec s;
  s.workload = workload;
  s.platform = platform;
  s.options = options;
  s.qBegin = qBegin;
  s.qEnd = qEnd;
  s.iBegin = iBegin;
  s.iEnd = iEnd;
  s.engine.threads = 1;
  return s;
}

TEST(GridEvaluator, ResidentGridMatchesFreshEvaluators) {
  study::WorkloadRegistry workloads;
  const exp::PlatformRegistry& platforms = exp::PlatformRegistry::instance();
  // A' is A's program under another MemoryLayout, by another name: the
  // layout-collision case of the trace store, one level up.
  const std::string a = "linearsearch-16x64";
  const std::string aRelaid = "linearsearch-16x64-relaid";
  {
    study::WorkloadInstance w = workloads.make(a);
    w.program.layout.memWords = 256;
    workloads.add({aRelaid, "linearsearch-16x64 under another layout",
                   [w] { return w; }});
  }
  exp::PlatformOptions options;
  options.numStates = 16;
  exp::PlatformOptions otherOptions = options;
  otherOptions.seed = 2;

  const auto eval = study::gridShardEvaluator(workloads, platforms);
  struct Step {
    ShardSpec spec;
    bool resident;  ///< expected to find its grid resident
  };
  const std::vector<Step> steps = {
      {shardOf(a, "inorder-lru", options, 0, 8, 0, 64), false},
      {shardOf(a, "inorder-lru", options, 8, 16, 0, 64), true},
      {shardOf("bubblesort-8", "inorder-lru", options, 0, 16, 0, 12), false},
      {shardOf(aRelaid, "inorder-lru", options, 0, 16, 0, 64), false},
      {shardOf(a, "inorder-lru", options, 0, 16, 16, 48), false},
      {shardOf(a, "inorder-lru", otherOptions, 0, 16, 0, 64), false},
      {shardOf(a, "inorder-lru", otherOptions, 4, 12, 8, 40), true},
      {shardOf(a, "inorder-lru", options, 0, 16, 0, 64), false},
  };
  for (std::size_t k = 0; k < steps.size(); ++k) {
    const Step& step = steps[k];
    const std::string label = "step " + std::to_string(k) + " " +
                              step.spec.workload + " " +
                              exp::shardLabel(step.spec);
    const grid::ShardOutput out = eval(step.spec);
    EXPECT_EQ(out.accumulator.serialize(),
              freshBytes(workloads, platforms, step.spec))
        << label;
    if (step.resident) {
      EXPECT_EQ(out.report.counter("trace_store.misses"), 0u) << label;
      EXPECT_EQ(out.report.counter("engine.model_cache.hits"), 1u) << label;
      EXPECT_EQ(out.report.counter("engine.model_cache.misses"), 0u)
          << label;
    } else {
      EXPECT_TRUE(rebuilt(out)) << label;
    }
  }
  // A' is a different grid, not a relabeled A.
  EXPECT_NE(freshBytes(workloads, platforms, steps[3].spec),
            freshBytes(workloads, platforms,
                       shardOf(a, "inorder-lru", options, 0, 16, 0, 64)));

  // A throwing shard leaves no grid behind: a q range past |Q| on the
  // resident grid's key, then an unknown workload.
  EXPECT_THROW(eval(shardOf(a, "inorder-lru", options, 8, 17, 0, 64)),
               std::invalid_argument);
  const ShardSpec again = shardOf(a, "inorder-lru", options, 8, 16, 0, 64);
  grid::ShardOutput out = eval(again);
  EXPECT_EQ(out.accumulator.serialize(),
            freshBytes(workloads, platforms, again));
  EXPECT_TRUE(rebuilt(out));
  EXPECT_THROW(eval(shardOf("no-such-workload", "inorder-lru", options, 0,
                            16, 0, 64)),
               std::invalid_argument);
  out = eval(again);
  EXPECT_EQ(out.accumulator.serialize(),
            freshBytes(workloads, platforms, again));
  EXPECT_TRUE(rebuilt(out));
}

TEST(GridEvaluator, EvaluatorsOverDifferentRegistriesNeverShareAGrid) {
  // Both platform registries bind "custom" and both workload registries
  // bind "custom-w", each to a different factory.  Evaluators over each
  // pairing, called alternately on one thread, must each rebuild — a
  // resident key without either registry's id shares a grid here.
  const auto& builtInPlatforms = exp::PlatformRegistry::instance();
  const auto& builtInWorkloads = study::WorkloadRegistry::instance();
  exp::PlatformRegistry lru;
  exp::PlatformRegistry icache;
  lru.add(
      {"custom", "inorder-lru", builtInPlatforms.find("inorder-lru")->make});
  icache.add({"custom", "inorder-lru-icache",
              builtInPlatforms.find("inorder-lru-icache")->make});
  study::WorkloadRegistry sorting;
  study::WorkloadRegistry searching;
  sorting.add({"custom-w", "bubblesort-8",
               builtInWorkloads.find("bubblesort-8")->make});
  searching.add({"custom-w", "linearsearch-16x64",
                 builtInWorkloads.find("linearsearch-16x64")->make});

  struct Side {
    const study::WorkloadRegistry* workloads;
    const exp::PlatformRegistry* platforms;
    grid::ShardEvalFn eval;
  };
  const std::vector<Side> sides = {
      {&sorting, &lru, study::gridShardEvaluator(sorting, lru)},
      {&sorting, &icache, study::gridShardEvaluator(sorting, icache)},
      {&searching, &lru, study::gridShardEvaluator(searching, lru)},
  };
  exp::PlatformOptions options;
  options.numStates = 8;
  const ShardSpec spec = shardOf("custom-w", "custom", options, 0, 8, 0, 12);
  std::vector<std::string> want;
  for (const Side& side : sides) {
    want.push_back(freshBytes(*side.workloads, *side.platforms, spec));
  }
  ASSERT_NE(want[0], want[1]);
  ASSERT_NE(want[0], want[2]);

  for (const std::size_t k : {0, 1, 0, 2, 0, 1, 2}) {
    const grid::ShardOutput out = sides[k].eval(spec);
    EXPECT_EQ(out.accumulator.serialize(), want[k]) << "side " << k;
    EXPECT_TRUE(rebuilt(out)) << "side " << k;
  }
}

// -------------------------------------------------------------- scheduler

TEST(GridScheduler, MatchesSingleProcessBytesAtEveryWorkerCount) {
  const auto g = makeTestGrid();
  const auto eval = study::gridShardEvaluator();
  // 7 shards of an 8 x |I| grid: a non-divisible split, stolen by 1, 2,
  // and 4 workers — every combination must merge to the single-process
  // bytes exactly.
  const auto plan = exp::planShards(g.whole, 7);
  for (const int workers : {1, 2, 4}) {
    grid::SchedulerConfig cfg;
    cfg.workers = workers;
    cfg.retryBackoffMs = 1;
    grid::WorkStealingScheduler sched(cfg);
    EXPECT_EQ(sched.estimatedNsPerCell(), 0.0);
    const auto outcome = sched.run(plan, eval);
    const std::string label = "workers=" + std::to_string(workers);
    EXPECT_EQ(outcome.merged.serialize(), g.singleBytes) << label;
    EXPECT_EQ(outcome.shardCount, plan.size()) << label;
    EXPECT_EQ(outcome.retries, 0u) << label;
    // The cost model calibrated itself from the shards' own reports.
    EXPECT_GT(sched.estimatedNsPerCell(), 0.0) << label;
  }

  grid::WorkStealingScheduler sched(grid::SchedulerConfig{});
  EXPECT_THROW(sched.run({}, eval), std::invalid_argument);
}

TEST(GridScheduler, RetriesInjectedFailuresAndStaysByteIdentical) {
  const auto g = makeTestGrid();
  const auto real = study::gridShardEvaluator();

  // Every shard's FIRST attempt throws; retries succeed.  The outcome
  // must be byte-identical anyway — a retried shard's contribution is
  // indistinguishable from a first-try one.
  std::mutex mu;
  std::set<std::pair<std::size_t, std::size_t>> failed;
  const grid::ShardEvalFn flaky =
      [&](const ShardSpec& spec) -> grid::ShardOutput {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (failed.insert({spec.qBegin, spec.iBegin}).second) {
        throw std::runtime_error("injected first-attempt failure");
      }
    }
    return real(spec);
  };

  obs::MetricsRegistry metrics;
  grid::SchedulerConfig cfg;
  cfg.workers = 3;
  cfg.maxAttempts = 3;
  cfg.retryBackoffMs = 1;
  cfg.metrics = &metrics;
  grid::WorkStealingScheduler sched(cfg);

  const auto plan = exp::planShards(g.whole, 5);
  const auto outcome = sched.run(plan, flaky);
  EXPECT_EQ(outcome.merged.serialize(), g.singleBytes);
  EXPECT_EQ(outcome.retries, plan.size());
  EXPECT_EQ(metrics.counterValues().at("grid.shards.retried"), plan.size());
  // Every shard was dispatched twice: the failed attempt plus the retry.
  EXPECT_EQ(metrics.counterValues().at("grid.shards.dispatched"),
            2 * plan.size());
}

TEST(GridScheduler, FailsLoudlyOnceAttemptsAreExhausted) {
  const auto g = makeTestGrid();
  grid::SchedulerConfig cfg;
  cfg.workers = 2;
  cfg.maxAttempts = 2;
  cfg.retryBackoffMs = 1;
  grid::WorkStealingScheduler sched(cfg);

  const grid::ShardEvalFn alwaysFails =
      [](const ShardSpec&) -> grid::ShardOutput {
    throw std::runtime_error("this shard never succeeds");
  };
  try {
    sched.run(exp::planShards(g.whole, 4), alwaysFails);
    FAIL() << "expected the job to fail after maxAttempts";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 attempt"), std::string::npos) << what;
    EXPECT_NE(what.find("never succeeds"), std::string::npos) << what;
  }
}

// -------------------------------------------- server + client end to end

TEST(GridServer, ServesSecondSubmissionFromTheCacheWithIdenticalBytes) {
  const auto g = makeTestGrid();
  InProcessServer fixture(/*workers=*/2);
  grid::GridClient client(fixture.endpoint());

  // First submission: computed, cached, byte-identical to reduceCells.
  const auto first = client.submit(g.whole, 4);
  EXPECT_FALSE(first.cacheHit);
  EXPECT_EQ(first.accumulatorText, g.singleBytes);
  EXPECT_EQ(first.fingerprint, grid::jobFingerprint(g.whole));
  EXPECT_TRUE(first.measures.identicalTo(
      StreamingMeasures::deserialize(g.singleBytes)));

  // Second submission: the acceptance criterion — a cache hit with the
  // EXACT same bytes.
  const auto second = client.submit(g.whole, 4);
  EXPECT_TRUE(second.cacheHit);
  EXPECT_EQ(second.accumulatorText, g.singleBytes);
  EXPECT_EQ(second.fingerprint, first.fingerprint);

  // A different shard split of the same grid is the same content address:
  // still a hit, still the same bytes.
  const auto resharded = client.submit(g.whole, 7);
  EXPECT_TRUE(resharded.cacheHit);
  EXPECT_EQ(resharded.accumulatorText, g.singleBytes);

  // useCache=false bypasses the lookup (recomputes) but not the insert.
  const auto forced = client.submit(g.whole, 4, /*useCache=*/false);
  EXPECT_FALSE(forced.cacheHit);
  EXPECT_EQ(forced.accumulatorText, g.singleBytes);

  // The server's own telemetry agrees.
  const auto stats = client.stats();
  EXPECT_EQ(stats.counters.at("grid.cache.hits"), 2u);
  EXPECT_EQ(stats.counters.at("grid.cache.misses"), 1u);
  // grid.jobs counts EVALUATED jobs: the first submission plus the forced
  // recomputation; the two cache hits never reached the scheduler.
  EXPECT_EQ(stats.counters.at("grid.jobs"), 2u);
  EXPECT_EQ(fixture.server().cache().hits(), 2u);
  EXPECT_EQ(fixture.server().cache().size(), 1u);
  // `client` disconnects first (scope order), then the fixture's
  // destructor runs the Shutdown/ShutdownAck handshake.
}

TEST(GridServer, SurvivesGarbageConnectionsAndKeepsServing) {
  const auto g = makeTestGrid();
  InProcessServer fixture(/*workers=*/2);

  // A hostile peer: 16 bytes of garbage, then write-close.  The server
  // must reply best-effort Error (or just drop us), close the
  // connection, and keep its accept loop alive.
  {
    const auto ep = grid::net::parseEndpoint(fixture.endpoint());
    const auto fd = grid::net::connectTo(ep);
    const std::string garbage(16, 'X');
    grid::net::writeAll(fd.get(), garbage.data(), garbage.size());
    ::shutdown(fd.get(), SHUT_WR);
    grid::Frame reply;
    try {
      if (grid::readFrame(fd.get(), reply)) {
        EXPECT_EQ(reply.type, grid::FrameType::Error);
      }
    } catch (const std::exception&) {
      // The server may also close before the reply lands; either way the
      // point is the NEXT connection, below.
    }
  }

  // A well-formed client right after the garbage one: served normally.
  grid::GridClient client(fixture.endpoint());
  const auto result = client.submit(g.whole, 3);
  EXPECT_EQ(result.accumulatorText, g.singleBytes);
  const auto stats = client.stats();
  EXPECT_GE(stats.counters.at("grid.bad_frames"), 1u);
}

TEST(GridServer, SurvivesAPeerThatVanishesBeforeReadingItsReply) {
  const auto g = makeTestGrid();
  InProcessServer fixture(/*workers=*/2);

  // A flaky peer: a well-formed Submit, then gone (timeout / Ctrl-C /
  // crash) before reading the Result frame.  The server's reply write
  // hits EPIPE; that must kill the connection, never the daemon.
  {
    const auto ep = grid::net::parseEndpoint(fixture.endpoint());
    const auto fd = grid::net::connectTo(ep);
    grid::writeFrame(fd.get(),
                     grid::Frame{grid::FrameType::Submit,
                                 grid::encodeJobRequest(
                                     grid::JobRequest{g.whole, 2, true})});
    // Scope exit closes the socket while the server is still evaluating.
  }

  // The accept loop (and the result cache it fronts) must still be alive:
  // the vanished peer's job was computed and cached, so this is a hit.
  grid::GridClient client(fixture.endpoint());
  const auto result = client.submit(g.whole, 2);
  EXPECT_EQ(result.accumulatorText, g.singleBytes);
}

// ----------------------------- concurrent clients & attached workers

TEST(GridServer, TwoConcurrentClientsGetTheirOwnBytesBack) {
  // Two clients with DIFFERENT jobs in flight at once: their shard sets
  // interleave through the one work-stealing queue, and each connection
  // must get exactly its own result — never the other's, never a blend.
  const auto g = makeTestGrid();

  exp::PlatformOptions options;
  options.numStates = 8;
  const auto w = study::WorkloadRegistry::instance().make("bubblesort-8");
  const auto model = exp::PlatformRegistry::instance().make(
      "ooo-fifo", w.program, options);
  ShardSpec other;
  other.platform = "ooo-fifo";
  other.workload = "bubblesort-8";
  other.options = options;
  other.qEnd = model->numStates();
  other.iEnd = w.inputs.size();
  const std::string otherBytes =
      exp::ExperimentEngine()
          .reduceCells(*model, w.program, w.inputs)
          .serialize();
  ASSERT_NE(otherBytes, g.singleBytes);

  InProcessServer fixture(/*workers=*/2);
  std::string bytesA, bytesB;
  std::thread a([&] {
    grid::GridClient client(fixture.endpoint());
    bytesA = client.submit(g.whole, 5).accumulatorText;
  });
  std::thread b([&] {
    grid::GridClient client(fixture.endpoint());
    bytesB = client.submit(other, 5).accumulatorText;
  });
  a.join();
  b.join();
  EXPECT_EQ(bytesA, g.singleBytes);
  EXPECT_EQ(bytesB, otherBytes);

  grid::GridClient client(fixture.endpoint());
  const auto stats = client.stats();
  EXPECT_EQ(stats.counters.at("grid.jobs"), 2u);
}

TEST(GridServer, AttachedWorkerServesEveryShardByteIdentically) {
  // Attach-only shape: zero fixed worker slots, one remote worker dialing
  // the dedicated worker endpoint.  Every shard flows over the socket and
  // the merged bytes must still match the single-process reference.
  const auto g = makeTestGrid();
  InProcessServer fixture(/*workers=*/0, 64, /*workerListen=*/true);

  std::thread worker([&] {
    grid::AttachOptions opts;
    opts.concurrency = 2;
    grid::runAttachWorker(fixture.workerEndpoint(),
                          study::gridShardEvaluator(), opts);
  });

  {
    grid::GridClient client(fixture.endpoint());
    const auto result = client.submit(g.whole, 5);
    EXPECT_FALSE(result.cacheHit);
    EXPECT_EQ(result.accumulatorText, g.singleBytes);

    const auto stats = client.stats();
    EXPECT_EQ(stats.counters.at("grid.worker.attached"), 1u);
    EXPECT_EQ(stats.counters.at("grid.worker.deaths"), 0u);
    // Provenance: the stats report names the channel that did the work.
    bool sawChannel = false;
    for (const auto& [name, value] : stats.counters) {
      if (name.rfind("grid.channel.0.socket.", 0) == 0) {
        sawChannel = true;
        EXPECT_EQ(value, 5u) << name;  // all five shards went through it
      }
    }
    EXPECT_TRUE(sawChannel);
  }

  // stop() sends the fleet Shutdown frames; the attach loop exits cleanly.
  fixture.stop();
  worker.join();
}

TEST(GridServer, AttachedWorkerDyingMidShardIsSurvived) {
  // A worker that dials in, accepts a lease, and dies without answering:
  // the orphaned shard must requeue onto the surviving fixed slots and
  // the job must still complete byte-identically.
  const auto g = makeTestGrid();
  InProcessServer fixture(/*workers=*/2);

  std::thread doomed([&] {
    try {
      auto fd = grid::net::connectTo(
          grid::net::parseEndpoint(fixture.endpoint()));
      grid::WorkerHelloMsg hello;
      hello.salt = std::string(grid::kCodeVersionSalt);
      hello.concurrency = 1;
      grid::writeFrame(fd.get(),
                       grid::Frame{grid::FrameType::WorkerHello,
                                   grid::encodeWorkerHelloMsg(hello)});
      grid::Frame welcome;
      if (!grid::readFrame(fd.get(), welcome, 10'000)) return;
      EXPECT_EQ(welcome.type, grid::FrameType::WorkerWelcome);
      grid::Frame assign;  // blocks until the submit below dispatches
      if (!grid::readFrame(fd.get(), assign, 20'000)) return;
      EXPECT_EQ(assign.type, grid::FrameType::ShardAssign);
      // Die holding the lease: scope exit closes the socket unanswered.
    } catch (const std::exception& e) {
      ADD_FAILURE() << "doomed worker: " << e.what();
    }
  });
  fixture.awaitCounter("grid.worker.attached", 1);

  grid::GridClient client(fixture.endpoint());
  const auto result = client.submit(g.whole, 8);
  EXPECT_EQ(result.accumulatorText, g.singleBytes);
  doomed.join();

  const auto stats = client.stats();
  EXPECT_GE(stats.counters.at("grid.worker.deaths"), 1u);
  EXPECT_EQ(stats.counters.at("grid.worker.attached"), 1u);
}

TEST(GridNet, ListenRefusesToReplaceANonSocketFile) {
  const std::string path = uniqueSocketPath();
  {
    std::ofstream out(path);
    out << "precious operator data\n";
  }
  grid::net::Endpoint ep;
  ep.isUnix = true;
  ep.path = path;
  EXPECT_THROW(grid::net::listenOn(ep, /*backlog=*/4, nullptr),
               std::runtime_error);
  // The mistyped target survives untouched.
  std::ifstream in(path);
  std::string line;
  EXPECT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "precious operator data");
  ::unlink(path.c_str());
}

TEST(GridServer, RejectsJobsForUnknownNamesWithoutDying) {
  InProcessServer fixture(/*workers=*/2);
  grid::GridClient client(fixture.endpoint());

  ShardSpec bogus;
  bogus.platform = "no-such-platform";
  bogus.workload = "bubblesort-8";
  bogus.qEnd = 4;
  bogus.iEnd = 4;
  // The server answers with an Error frame (re-thrown here), and the
  // SAME connection keeps working afterwards.
  EXPECT_THROW(client.submit(bogus, 2), std::runtime_error);

  const auto g = makeTestGrid();
  EXPECT_EQ(client.submit(g.whole, 2).accumulatorText, g.singleBytes);

  // The bogus job ran out of attempts: it counts as failed, never as a
  // served job.
  const auto stats = client.stats();
  EXPECT_EQ(stats.counters.at("grid.jobs.failed"), 1u);
  EXPECT_EQ(stats.counters.at("grid.jobs"), 1u);
}

/// Live or zombie children of this process whose command name is `comm`.
std::vector<int> childrenNamed(const std::string& comm) {
  std::vector<int> pids;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator("/proc", ec)) {
    const std::string pid = entry.path().filename().string();
    if (pid.find_first_not_of("0123456789") != std::string::npos) continue;
    std::ifstream stat(entry.path() / "stat");
    std::string line;
    if (!std::getline(stat, line)) continue;  // exited meanwhile
    // "pid (comm) state ppid ...": comm may hold spaces, so split on the
    // parentheses.
    const auto open = line.find('(');
    const auto close = line.rfind(')');
    if (open == std::string::npos || close == std::string::npos) continue;
    std::istringstream rest(line.substr(close + 1));
    char state = 0;
    int ppid = 0;
    rest >> state >> ppid;
    if (ppid == ::getpid() && line.substr(open + 1, close - open - 1) == comm)
      pids.push_back(std::stoi(pid));
  }
  return pids;
}

TEST(GridServer, SpawnedChildThatNeverSaysHelloIsRespawnedThenRetired) {
  // Without a hello deadline, a spawned child that never sends its
  // WorkerHello holds its slot at capacity 0 forever and the submit hangs.
  // The child gets the server's connTimeoutMs for its hello: each silent
  // child is killed and counted as a death, the slot respawns within
  // maxSpawnsPerSlot, and then the job fails with the spawn-budget error.
  const auto g = makeTestGrid();
  {
    InProcessServer fixture(
        /*workers=*/1, 64, false, [](grid::ServerConfig& cfg) {
          cfg.eval = nullptr;
          cfg.scheduler.workerCommand = {"/bin/sh", "-c", "exec sleep 30"};
          cfg.scheduler.maxSpawnsPerSlot = 2;
          cfg.connTimeoutMs = 300;
        });
    grid::ClientOptions options;
    options.connectTimeoutMs = 5000;
    // A missing hello deadline fails the test here instead of hanging it.
    options.ioTimeoutMs = 10'000;
    {
      grid::GridClient client(fixture.endpoint(), options);
      const auto t0 = std::chrono::steady_clock::now();
      try {
        client.submit(g.whole, 2);
        ADD_FAILURE() << "a job with no live worker succeeded";
      } catch (const grid::net::TimeoutError& e) {
        FAIL() << "the submit hung until the client deadline: " << e.what();
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("spawn budget"),
                  std::string::npos)
            << e.what();
      }
      EXPECT_LT(std::chrono::steady_clock::now() - t0,
                std::chrono::seconds(5));

      // The daemon keeps serving, and both silent children were deaths.
      const auto stats = client.stats();
      EXPECT_EQ(stats.counters.at("grid.worker.spawns"), 2u);
      EXPECT_EQ(stats.counters.at("grid.worker.deaths"), 2u);
      EXPECT_EQ(stats.counters.at("grid.jobs.failed"), 1u);
    }
    EXPECT_EQ(grid::GridClient(fixture.endpoint(), options)
                  .stats()
                  .counters.at("grid.worker.deaths"),
              2u);
  }
  // Killed children were reaped, not left running or as zombies.
  EXPECT_TRUE(childrenNamed("sleep").empty());
  EXPECT_TRUE(childrenNamed("sh").empty());
}

// -------------------------------------------------- study-layer entry

TEST(GridQuery, RunDistributedMatchesRunAndReportsTheCacheHit) {
  InProcessServer fixture(/*workers=*/2);

  exp::ExperimentEngine engine;
  const auto query = study::Query()
                         .workload("bubblesort-8")
                         .platform("ooo-fifo")
                         .mode(study::Exhaustive{});
  const auto reference = query.run(engine);
  // Field for field against run(), and the report's cache-hit flag.
  const auto expectMatchesRun = [&](const study::Finding& finding,
                                    std::uint64_t cacheHit,
                                    const std::string& label) {
    EXPECT_EQ(finding.workload, reference.workload) << label;
    EXPECT_EQ(finding.platform, reference.platform) << label;
    EXPECT_EQ(finding.numStates, reference.numStates) << label;
    EXPECT_EQ(finding.numInputs, reference.numInputs) << label;
    EXPECT_EQ(finding.bcet, reference.bcet) << label;
    EXPECT_EQ(finding.wcet, reference.wcet) << label;
    EXPECT_EQ(finding.stateLabels, reference.stateLabels) << label;
    expectSamePredictabilityValue(finding.pr, reference.pr, label);
    expectSamePredictabilityValue(finding.sipr, reference.sipr, label);
    expectSamePredictabilityValue(finding.iipr, reference.iipr, label);
    ASSERT_TRUE(finding.report.has_value()) << label;
    EXPECT_EQ(finding.report->counters.at("grid.cache.hit"), cacheHit)
        << label;
  };

  // The server handles connections sequentially, so close this client's
  // connection (scope exit) before the endpoint-overload call below dials
  // its own.
  {
    grid::GridClient client(fixture.endpoint());
    // First submission computes, later ones hit the cache (the shard
    // count is a scheduling knob, so shards=3 shares shards=1's address).
    for (const std::size_t shards : {1u, 3u}) {
      expectMatchesRun(query.runDistributed(client, shards),
                       shards == 1 ? 0u : 1u,
                       "shards=" + std::to_string(shards));
    }
    // Uncached submits recompute, so every split is merged afresh from
    // the workers' shards and must still equal run().
    for (const std::size_t shards : {2u, 3u, 8u}) {
      expectMatchesRun(
          query.runDistributed(client, shards, /*useCache=*/false), 0u,
          "uncached shards=" + std::to_string(shards));
    }
  }

  // The endpoint-string overload dials its own connection.
  const auto viaEndpoint = query.runDistributed(fixture.endpoint(), 2);
  ASSERT_TRUE(viaEndpoint.report.has_value());
  EXPECT_EQ(viaEndpoint.report->counters.at("grid.cache.hit"), 1u);
  EXPECT_EQ(viaEndpoint.bcet, reference.bcet);
  EXPECT_EQ(viaEndpoint.wcet, reference.wcet);
}

TEST(GridQuery, RunDistributedRejectsUnshardableQueriesBeforeSubmitting) {
  InProcessServer fixture(/*workers=*/2);
  grid::GridClient client(fixture.endpoint());
  // Inline workloads cannot be named across a process boundary.
  const auto w = study::WorkloadRegistry::instance().make("sum-16");
  EXPECT_THROW(study::Query()
                   .workload("inline", w.program, w.inputs)
                   .platform("inorder-lru")
                   .runDistributed(client, 4),
               std::invalid_argument);
  // Sampled mode has no mergeable exhaustive accumulator.
  EXPECT_THROW(study::Query()
                   .workload("bubblesort-8")
                   .platform("inorder-lru")
                   .mode(study::Sampled{16, 1})
                   .runDistributed(client, 4),
               std::invalid_argument);
  // Exactly one platform.
  EXPECT_THROW(study::Query()
                   .workload("bubblesort-8")
                   .platform("inorder-lru")
                   .platform("ooo-fifo")
                   .runDistributed(client, 4),
               std::invalid_argument);
  // Uncertainty subsets restrict the quantified axes; a grid job covers
  // the full grid.
  EXPECT_THROW(study::Query()
                   .workload("bubblesort-8")
                   .platform("inorder-lru")
                   .uncertainty({0, 1}, {})
                   .runDistributed(client, 4),
               std::invalid_argument);
  // None of them reached the server.
  const auto stats = client.stats();
  EXPECT_EQ(stats.counters.at("grid.jobs"), 0u);
  EXPECT_EQ(stats.counters.at("grid.jobs.failed"), 0u);
  EXPECT_EQ(stats.counters.at("grid.cache.misses"), 0u);
}

}  // namespace
}  // namespace pred
