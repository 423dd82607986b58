#pragma once
// attach_worker.h — The worker side of the worker conversation.
//
// runAttachWorker is what `pred-shard-worker attach ENDPOINT` runs:
// handshake (WorkerHello with the build's code-version salt; the server
// rejects a mismatch, because a worker built from different code must
// never evaluate shards), then serve ShardAssign frames until the server
// hangs up or sends Shutdown.  `concurrency` shards ride in flight at
// once — a pool of evaluator threads answers ShardDone frames in
// completion order, and the lease id on each frame routes it back to the
// right shard server-side.
//
// Two callers, one conversation.  A remote worker DIALS the server's
// endpoint (tcp:HOST:PORT or unix:PATH).  A fixed slot of the server is
// `attach -`: the server spawned it with one end of a socketpair on its
// stdin, and the fd overload below runs the same loop over that socket.
//
// The evaluator is a parameter, not a hard dependency: grid/ stays
// ignorant of study/ workloads; the tool passes the same evaluation
// lambda `run` and `single` use, which is what makes worker results
// byte-identical to every other execution mode.
//
// Liveness: a Heartbeat frame goes out whenever the assignment stream is
// quiet for heartbeatMs, so a server configured with an idle-worker
// staleness bound can tell a healthy-but-idle worker from a half-open
// socket left by a crashed one.

#include <cstddef>
#include <cstdint>
#include <string>

#include "grid/net.h"
#include "grid/scheduler.h"

namespace pred::grid {

struct AttachOptions {
  /// Shards evaluated concurrently (announced in the hello; the server
  /// keeps this many leases in flight).
  std::size_t concurrency = 1;
  /// Quiet-line heartbeat interval.
  std::uint64_t heartbeatMs = 2'000;
  /// Deadline for the dial + handshake round trip.
  int connectTimeoutMs = 10'000;
  /// Fault injection: die (_exit(3)) on RECEIPT of assignment
  /// exitAfter+1 — after the server committed the dispatch, before any
  /// reply — the orphaned-lease shape the requeue path must survive.
  bool haveExitAfter = false;
  std::size_t exitAfter = 0;
  /// Salt override for handshake tests ("" = this build's salt).
  std::string salt;
};

/// Serves shards over the connected stream socket `fd` until the server
/// closes it or asks for shutdown; returns the process exit code (0 =
/// clean).  Throws std::runtime_error when the handshake fails (salt
/// rejected, server gone).
int runAttachWorker(net::Fd fd, ShardEvalFn eval,
                    const AttachOptions& options = {});

/// Dials `endpointText` ("tcp:HOST:PORT" or "unix:PATH"), then runs the
/// fd overload.  Throws std::runtime_error when the dial fails
/// (connection refused, missing socket file).
int runAttachWorker(const std::string& endpointText, ShardEvalFn eval,
                    const AttachOptions& options = {});

}  // namespace pred::grid
