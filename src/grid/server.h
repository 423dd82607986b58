#pragma once
// server.h — The pred-grid-server daemon core.
//
// A GridServer owns the listening socket(s), the result cache, the shard
// queue + worker fleet, and the grid.* metrics; tools/grid_server.cpp is
// a thin argv shell around it, and tests drive the same class in-process.
// One poll() multiplexes EVERYTHING the daemon talks to: each turn of
// serveForever hands the client listener (plus an optional dedicated
// worker listener) and every accepted connection to WorkerFleet::step,
// which adds every worker channel and polls them all at once — so N
// clients and M workers make progress concurrently in a single thread,
// with no locking.
//
// A connection's role is decided by its FIRST frame:
//   - WorkerHello: a remote worker dialing in (pred-shard-worker attach).
//     The handshake checks the code-version salt (fingerprint.h) — a
//     mismatched worker is rejected with an Error frame and counted in
//     grid.worker.rejected_salt; a matching one gets WorkerWelcome, its
//     fd is adopted into the fleet as a SocketChannel, and it is handed
//     shards from the same work-stealing queue as every other worker.
//   - anything else: a client conversation (grid/protocol.h): Submit
//     frames carry jobs, StatsRequest reads the server's own RunReport,
//     Shutdown stops the loop.  One job per connection is in flight at a
//     time (further frames buffer until the reply is written), but jobs
//     from DIFFERENT connections interleave through the shared queue —
//     lease tokens route every completion to its own job, so concurrent
//     clients can never share or reorder each other's results.
//
// The worker fleet is persistent across jobs: config.scheduler.workers
// fixed slots (in-process evaluator threads when config.eval is set,
// otherwise `<scheduler.workerCommand> attach -` children on socketpairs,
// which hold the same hello/salt/lease conversation as a dial-in; workers
// may be 0 for an attach-only server) plus any number of dynamically
// attached dial-in workers.  Worker death — EOF, POLLHUP, write-EPIPE,
// shard timeout, kill -9 of any worker process — requeues the dead
// worker's leases and the affected jobs complete byte-identical.  A job
// that fails anyway (attempts exhausted, or every spawned slot spent)
// ticks grid.jobs.failed; grid.jobs counts the ones that succeeded.
//
// Result caching: the job's fingerprint (grid/fingerprint.h) is looked up
// first — a hit answers in O(1) with the EXACT bytes computed before,
// ticking grid.cache.hits; a miss evaluates, stores, and ticks
// grid.cache.misses.  A JobRequest with useCache=false skips the lookup
// (never the insert) so fault-injection smokes can force recomputation.
// Malformed frames on a connection get a best-effort Error reply and the
// connection is dropped; a peer that vanishes before reading its reply
// (EPIPE on the write) is dropped the same way, and its job still runs to
// completion and caches — the event loop itself never dies on client (or
// worker) behavior.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "grid/cache.h"
#include "grid/net.h"
#include "grid/protocol.h"
#include "grid/scheduler.h"
#include "grid/worker_channel.h"
#include "obs/metrics.h"
#include "obs/run_report.h"

namespace pred::grid {

struct ServerConfig {
  /// Listen endpoint, "unix:PATH" or "tcp:HOST:PORT" (port 0 = ephemeral;
  /// read the resolved one from boundPort()).
  std::string endpoint = "unix:/tmp/pred-grid.sock";
  /// Optional second listener dedicated to dialing workers ("" = none).
  /// Workers may also attach on the main endpoint — the role of any
  /// connection is decided by its first frame — but a separate listener
  /// lets deployments firewall the two planes apart.
  std::string workerEndpoint;
  SchedulerConfig scheduler;
  std::size_t cacheEntries = 1024;
  /// Non-empty enables crash-safe cache persistence: the result cache
  /// journals inserts under this directory and replays the journal at
  /// startup, so a restarted server serves the same byte-identical hits.
  std::string cacheDir;
  /// Idle-connection deadline in ms; a peer that connects and then goes
  /// silent (stalled client, half-open socket, a dial-in that never says
  /// hello) is dropped and counted, not carried forever.  The clock only
  /// runs while the connection has no job in flight.  A spawned worker
  /// child gets the same deadline for its hello, from its spawn; one that
  /// misses it is killed, counted in grid.worker.deaths and respawned
  /// within scheduler.maxSpawnsPerSlot.  0 = no deadline.
  std::uint64_t connTimeoutMs = 30'000;
  /// Staleness bound for IDLE attached workers (heartbeats reset it); one
  /// that exceeds it is treated as half-open and detached.  0 = disabled.
  std::uint64_t idleWorkerTimeoutMs = 0;
  /// In-process evaluator; leave empty to spawn `attach -` workers from
  /// scheduler.workerCommand.
  ShardEvalFn eval;
};

class GridServer {
 public:
  /// Validates the config, binds + listens on the endpoint(s), and spawns
  /// the fixed worker slots (throws on failure — a server that can't
  /// listen should fail at construction, not first accept).
  explicit GridServer(ServerConfig config);
  ~GridServer();

  /// Runs the event loop until a Shutdown frame arrives.
  void serveForever();

  /// Resolved TCP port (the configured one for unix endpoints' 0).
  int boundPort() const { return boundPort_; }
  /// Endpoint text with the resolved port — what clients should dial.
  std::string boundEndpointText() const;
  /// Worker-listener endpoint text ("" when none is configured) — what
  /// `pred-shard-worker attach` should dial.
  std::string boundWorkerEndpointText() const;

  obs::MetricsRegistry& metrics() { return metrics_; }
  const ResultCache& cache() const { return cache_; }

  /// The server's own telemetry: every grid.* counter, one point-in-time
  /// grid.channel.<idx>.<kind>.<peer>.completed row per live worker
  /// channel, plus the last job's fleet phases/shards — what StatsRequest
  /// frames return.
  obs::RunReport statsReport() const;

 private:
  using Clock = WorkerChannel::Clock;

  /// One accepted connection whose conversation the event loop owns.
  struct Conn {
    net::Fd fd;
    std::string peer;
    std::string buf;       ///< incremental frame decode buffer
    std::size_t off = 0;   ///< decode offset into buf
    Clock::time_point lastActivity{};
    std::uint64_t job = 0;  ///< in-flight job id; 0 = none
    bool closing = false;
  };

  /// A job the queue is running; the owner is cleared (never dangled)
  /// when its connection dies first — the job still completes and caches.
  struct JobState {
    std::string fingerprint;
    Conn* owner = nullptr;
  };

  void acceptPending(int listenFd);
  void readConn(Conn& conn);
  /// Decodes and handles frames from `conn.buf` until a job starts, the
  /// connection closes, or the bytes run out.
  void processConn(Conn& conn);
  /// Handles one decoded client/handshake frame; false closes the conn.
  bool onFrame(Conn& conn, const Frame& frame);
  /// The WorkerHello handshake: salt check, WorkerWelcome, fleet adopt.
  bool onWorkerHello(Conn& conn, const Frame& frame);
  bool onSubmit(Conn& conn, const Frame& frame);
  /// Replies to every job the queue settled since the last call.
  void settleJobs();
  void dropConnDeadlined(Conn& conn);

  ServerConfig config_;
  net::Endpoint endpoint_;
  obs::MetricsRegistry metrics_;
  ResultCache cache_;
  net::Fd listenFd_;
  net::Fd workerListenFd_;
  int boundPort_ = 0;
  int boundWorkerPort_ = 0;
  ShardQueue queue_;
  WorkerFleet fleet_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::map<std::uint64_t, JobState> jobsInFlight_;
  bool stop_ = false;
  obs::RunReport lastFleet_;
};

}  // namespace pred::grid
