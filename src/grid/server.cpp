#include "grid/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "exp/shard.h"
#include "grid/faultpoint.h"
#include "grid/fingerprint.h"

namespace pred::grid {

namespace {

/// Best-effort reply.  A peer that vanishes before reading its reply
/// (timeout, Ctrl-C, crash after Submit) makes writeFrame throw EPIPE,
/// and one that stops draining its socket trips the deadline; either is a
/// dead connection, not a dead server, so the failure must not escape
/// into the event loop — but the two are tallied differently.
enum class WriteStatus { Ok, PeerGone, TimedOut };

WriteStatus tryWriteFrame(int fd, const Frame& frame, int timeoutMs) {
  try {
    writeFrame(fd, frame, timeoutMs);
    return WriteStatus::Ok;
  } catch (const net::TimeoutError&) {
    return WriteStatus::TimedOut;
  } catch (const std::exception&) {
    return WriteStatus::PeerGone;
  }
}

void setNonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

std::string peerText(const sockaddr_storage& ss) {
  char host[INET6_ADDRSTRLEN] = {0};
  if (ss.ss_family == AF_INET) {
    const auto* a = reinterpret_cast<const sockaddr_in*>(&ss);
    ::inet_ntop(AF_INET, &a->sin_addr, host, sizeof host);
    return std::string("tcp:") + host + ":" +
           std::to_string(ntohs(a->sin_port));
  }
  if (ss.ss_family == AF_INET6) {
    const auto* a = reinterpret_cast<const sockaddr_in6*>(&ss);
    ::inet_ntop(AF_INET6, &a->sin6_addr, host, sizeof host);
    return std::string("tcp:") + host + ":" +
           std::to_string(ntohs(a->sin6_port));
  }
  return "unix:peer";
}

/// Builds the persistent fleet's shape from the server config, validating
/// the same invariant the old two-mode server did: fixed worker slots
/// need either an in-process evaluator or a worker command.  workers == 0
/// is the attach-only shape — every shard waits for dialed-in workers.
FleetConfig makeFleetConfig(const ServerConfig& config,
                            obs::MetricsRegistry& metrics) {
  const int workers = std::max(config.scheduler.workers, 0);
  if (workers > 0 && !config.eval &&
      config.scheduler.workerCommand.empty())
    throw std::invalid_argument(
        "grid server: need an in-process evaluator or a worker command");
  FleetConfig fc;
  if (config.eval) {
    fc.localSlots = workers;
    fc.eval = config.eval;
  } else {
    fc.spawnSlots = workers;
    fc.workerCommand = config.scheduler.workerCommand;
  }
  fc.maxSpawnsPerSlot = config.scheduler.maxSpawnsPerSlot;
  fc.shardTimeoutMs = config.scheduler.shardTimeoutMs;
  fc.idleWorkerTimeoutMs = config.idleWorkerTimeoutMs;
  fc.helloTimeoutMs = config.connTimeoutMs;
  fc.metrics = &metrics;
  return fc;
}

}  // namespace

GridServer::GridServer(ServerConfig config)
    : config_(std::move(config)),
      endpoint_(net::parseEndpoint(config_.endpoint)),
      cache_(config_.cacheEntries, config_.cacheDir),
      queue_(ShardQueue::Policy{config_.scheduler.maxAttempts,
                                config_.scheduler.retryBackoffMs,
                                &metrics_}),
      fleet_(makeFleetConfig(config_, metrics_)) {
  listenFd_ = net::listenOn(endpoint_, /*backlog=*/16, &boundPort_);
  setNonblocking(listenFd_.get());
  if (!config_.workerEndpoint.empty()) {
    workerListenFd_ = net::listenOn(net::parseEndpoint(config_.workerEndpoint),
                                    /*backlog=*/16, &boundWorkerPort_);
    setNonblocking(workerListenFd_.get());
  }
  // Touch every counter the server can tick so statsReport() enumerates
  // them (as zeros) even before the first job.
  for (const char* name :
       {"grid.jobs", "grid.jobs.failed", "grid.cache.hits",
        "grid.cache.misses", "grid.shards.dispatched", "grid.shards.retried",
        "grid.worker.spawns", "grid.worker.deaths", "grid.worker.attached",
        "grid.worker.rejected_salt", "grid.connections", "grid.bad_frames",
        "grid.conn.dropped", "grid.conn.timeout", "grid.cache.recovered",
        "grid.cache.persist_errors"})
    metrics_.counter(name);
  metrics_.counter("grid.cache.recovered").add(cache_.recoveredEntries());
}

GridServer::~GridServer() = default;

std::string GridServer::boundEndpointText() const {
  net::Endpoint ep = endpoint_;
  if (!ep.isUnix) ep.port = boundPort_;
  return net::endpointText(ep);
}

std::string GridServer::boundWorkerEndpointText() const {
  if (config_.workerEndpoint.empty()) return {};
  net::Endpoint ep = net::parseEndpoint(config_.workerEndpoint);
  if (!ep.isUnix) ep.port = boundWorkerPort_;
  return net::endpointText(ep);
}

void GridServer::serveForever() {
  while (!stop_) {
    settleJobs();
    fleet_.dispatch(queue_);
    settleJobs();  // a dispatch-time failure can settle a job synchronously
    if (fleet_.exhausted() && queue_.hasWork()) {
      queue_.failAll(
          "grid scheduler: every worker slot exhausted its spawn budget "
          "with shards left");
      settleJobs();
    }
    if (stop_) break;

    // Sweep connections marked closing BEFORE blocking in poll: closing
    // the fd is what unblocks a peer waiting on a reply that will never
    // come (e.g. after its reply write died), so it cannot wait until
    // after a poll that may have no other wake-up.  Jobs a swept
    // connection owned keep running ownerless (the result still caches —
    // a vanished peer must not waste work).
    conns_.erase(
        std::remove_if(conns_.begin(), conns_.end(),
                       [&](const std::unique_ptr<Conn>& conn) {
                         if (!conn->closing) return false;
                         for (auto& [id, js] : jobsInFlight_)
                           if (js.owner == conn.get()) js.owner = nullptr;
                         return true;
                       }),
        conns_.end());

    // One poll for everything: the listeners and connections here, the
    // worker channels appended by the fleet.  An idle connection's
    // deadline is this loop's own wake-up time.
    std::vector<pollfd> fds;
    fds.push_back({listenFd_.get(), POLLIN, 0});
    if (workerListenFd_.valid())
      fds.push_back({workerListenFd_.get(), POLLIN, 0});
    const std::size_t firstConn = fds.size();
    const std::size_t connCount = conns_.size();
    std::optional<Clock::time_point> idleDeadline;
    const auto budget = std::chrono::milliseconds(config_.connTimeoutMs);
    for (const auto& conn : conns_) {
      fds.push_back({conn->fd.get(), POLLIN, 0});
      if (config_.connTimeoutMs > 0 && conn->job == 0 &&
          (!idleDeadline || conn->lastActivity + budget < *idleDeadline))
        idleDeadline = conn->lastActivity + budget;
    }
    fleet_.step(queue_, fds, idleDeadline);

    if (fds[0].revents != 0) acceptPending(listenFd_.get());
    if (workerListenFd_.valid() && fds[1].revents != 0)
      acceptPending(workerListenFd_.get());
    // conns_ may have grown during accept; new entries were appended, so
    // the first connCount indices still line up with the pollfds.
    for (std::size_t k = 0; k < connCount; ++k) {
      if (fds[firstConn + k].revents == 0) continue;
      Conn& conn = *conns_[k];
      if (conn.closing || !conn.fd.valid()) continue;
      // POLLHUP with pending data still reads; read() returning 0 is the
      // one true EOF signal.
      readConn(conn);
    }

    if (config_.connTimeoutMs > 0) {
      const Clock::time_point now = Clock::now();
      for (const auto& conn : conns_)
        if (!conn->closing && conn->job == 0 &&
            conn->lastActivity + budget <= now)
          dropConnDeadlined(*conn);
    }
  }

  // Shutdown: drop every connection and stop the fleet gracefully.
  conns_.clear();
  for (auto& [id, js] : jobsInFlight_) js.owner = nullptr;
  fleet_.shutdownAll();
}

void GridServer::acceptPending(int listenFd) {
  for (;;) {
    sockaddr_storage ss{};
    socklen_t slen = sizeof ss;
    const int fd =
        ::accept(listenFd, reinterpret_cast<sockaddr*>(&ss), &slen);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      throw std::runtime_error(std::string("grid server: accept: ") +
                               std::strerror(errno));
    }
    auto conn = std::make_unique<Conn>();
    conn->fd.reset(fd);
    conn->peer = peerText(ss);
    conn->lastActivity = Clock::now();
    metrics_.counter("grid.connections").add();
    conns_.push_back(std::move(conn));
  }
}

void GridServer::readConn(Conn& conn) {
  char chunk[65536];
  const ssize_t r = ::read(conn.fd.get(), chunk, sizeof chunk);
  if (r < 0) {
    if (errno == EINTR || errno == EAGAIN) return;
    metrics_.counter("grid.conn.dropped").add();
    conn.closing = true;
    return;
  }
  if (r == 0) {  // EOF
    if (conn.buf.size() != conn.off) {
      // The peer vanished mid-frame: framing was lost, not finished.
      metrics_.counter("grid.bad_frames").add();
      metrics_.counter("grid.conn.dropped").add();
    } else if (conn.job != 0) {
      // Vanished after Submit without waiting for the reply; the job
      // still runs (and caches) without it.
      metrics_.counter("grid.conn.dropped").add();
    }
    conn.closing = true;
    return;
  }
  conn.lastActivity = Clock::now();
  conn.buf.append(chunk, static_cast<std::size_t>(r));
  processConn(conn);
}

void GridServer::processConn(Conn& conn) {
  const int timeout = config_.connTimeoutMs == 0
                          ? net::kNoDeadline
                          : static_cast<int>(config_.connTimeoutMs);
  // One job per connection at a time: while one is in flight, further
  // frames stay buffered and decode resumes after the reply.
  while (!conn.closing && conn.job == 0) {
    std::optional<Frame> frame;
    try {
      frame = decodeFrame(conn.buf, conn.off);
    } catch (const std::exception& e) {
      // Garbage on the wire: this connection is unrecoverable (framing
      // is lost), but the server is not — tell the peer if it still
      // listens, drop the connection, keep serving.
      metrics_.counter("grid.bad_frames").add();
      metrics_.counter("grid.conn.dropped").add();
      tryWriteFrame(conn.fd.get(),
                    Frame{FrameType::Error,
                          std::string("malformed frame: ") + e.what()},
                    timeout);
      conn.closing = true;
      return;
    }
    if (!frame) break;
    if (!onFrame(conn, *frame)) {
      conn.closing = true;
      return;
    }
  }
  if (conn.off == conn.buf.size()) {
    conn.buf.clear();
    conn.off = 0;
  } else if (conn.off > (std::size_t{1} << 20)) {
    conn.buf.erase(0, conn.off);
    conn.off = 0;
  }
}

bool GridServer::onFrame(Conn& conn, const Frame& frame) {
  const int timeout = config_.connTimeoutMs == 0
                          ? net::kNoDeadline
                          : static_cast<int>(config_.connTimeoutMs);
  const auto noteDrop = [this](WriteStatus ws) {
    if (ws == WriteStatus::TimedOut)
      metrics_.counter("grid.conn.timeout").add();
    metrics_.counter("grid.conn.dropped").add();
  };
  switch (frame.type) {
    case FrameType::WorkerHello:
      return onWorkerHello(conn, frame);
    case FrameType::Submit:
      return onSubmit(conn, frame);
    case FrameType::StatsRequest:
      if (const auto ws = tryWriteFrame(
              conn.fd.get(),
              Frame{FrameType::StatsReply, statsReport().serialize()},
              timeout);
          ws != WriteStatus::Ok) {
        noteDrop(ws);
        return false;
      }
      return true;
    case FrameType::Shutdown:
      tryWriteFrame(conn.fd.get(), Frame{FrameType::ShutdownAck, ""},
                    timeout);
      stop_ = true;
      return false;
    default:
      if (const auto ws = tryWriteFrame(
              conn.fd.get(),
              Frame{FrameType::Error,
                    "unexpected frame type for a grid server"},
              timeout);
          ws != WriteStatus::Ok) {
        noteDrop(ws);
        return false;
      }
      return true;
  }
}

bool GridServer::onWorkerHello(Conn& conn, const Frame& frame) {
  const int timeout = config_.connTimeoutMs == 0
                          ? net::kNoDeadline
                          : static_cast<int>(config_.connTimeoutMs);
  std::optional<WorkerHelloMsg> hello;
  try {
    fault::check("worker.attach");
    hello.emplace(parseWorkerHelloMsg(frame.payload));
  } catch (const std::exception& e) {
    metrics_.counter("grid.bad_frames").add();
    metrics_.counter("grid.conn.dropped").add();
    tryWriteFrame(conn.fd.get(), Frame{FrameType::Error, e.what()}, timeout);
    return false;
  }
  if (const std::string why = saltMismatch(hello->salt); !why.empty()) {
    // A worker built from different code must never evaluate shards:
    // byte-identity across the fleet is the whole contract.
    metrics_.counter("grid.worker.rejected_salt").add();
    tryWriteFrame(conn.fd.get(), Frame{FrameType::Error, why}, timeout);
    return false;
  }
  if (tryWriteFrame(conn.fd.get(), Frame{FrameType::WorkerWelcome, ""},
                    timeout) != WriteStatus::Ok)
    return false;
  // The fd moves into the fleet; bytes the worker pipelined after its
  // hello (an eager heartbeat) ride along as the channel's first buffer.
  std::string leftover = conn.buf.substr(conn.off);
  conn.buf.clear();
  conn.off = 0;
  fleet_.adopt(std::make_unique<SocketChannel>(
      std::move(conn.fd), conn.peer, hello->concurrency,
      std::move(leftover)));
  metrics_.counter("grid.worker.attached").add();
  return false;  // retire the Conn record; the channel owns the socket now
}

bool GridServer::onSubmit(Conn& conn, const Frame& frame) {
  const int timeout = config_.connTimeoutMs == 0
                          ? net::kNoDeadline
                          : static_cast<int>(config_.connTimeoutMs);
  const auto noteDrop = [this](WriteStatus ws) {
    if (ws == WriteStatus::TimedOut)
      metrics_.counter("grid.conn.timeout").add();
    metrics_.counter("grid.conn.dropped").add();
  };
  // A bad request (unparsable payload, unknown platform/workload) earns
  // an Error reply and the connection stays usable — client mistakes are
  // not connection crimes.
  const auto rejectWith = [&](const std::string& why) -> bool {
    if (const auto ws = tryWriteFrame(
            conn.fd.get(), Frame{FrameType::Error, why}, timeout);
        ws != WriteStatus::Ok) {
      noteDrop(ws);
      return false;
    }
    return true;
  };

  std::optional<JobRequest> req;
  try {
    req.emplace(parseJobRequest(frame.payload));
  } catch (const std::exception& e) {
    return rejectWith(e.what());
  }

  const std::string fp = jobFingerprint(req->spec);
  if (req->useCache) {
    if (std::optional<std::string> bytes = cache_.lookup(fp)) {
      metrics_.counter("grid.cache.hits").add();
      if (const auto ws = tryWriteFrame(
              conn.fd.get(),
              Frame{FrameType::Result,
                    encodeJobResultMsg(
                        JobResultMsg{true, fp, std::move(*bytes)})},
              timeout);
          ws != WriteStatus::Ok) {
        noteDrop(ws);
        return false;
      }
      return true;
    }
    metrics_.counter("grid.cache.misses").add();
  }

  std::vector<exp::ShardSpec> plan;
  try {
    plan = exp::planShards(req->spec, req->shards == 0 ? 1 : req->shards);
  } catch (const std::exception& e) {
    return rejectWith(e.what());
  }

  const std::uint64_t job = queue_.addJob(std::move(plan));
  jobsInFlight_.emplace(job, JobState{fp, &conn});
  conn.job = job;
  return true;
}

void GridServer::settleJobs() {
  const int timeout = config_.connTimeoutMs == 0
                          ? net::kNoDeadline
                          : static_cast<int>(config_.connTimeoutMs);
  const auto noteDrop = [this](WriteStatus ws) {
    if (ws == WriteStatus::TimedOut)
      metrics_.counter("grid.conn.timeout").add();
    metrics_.counter("grid.conn.dropped").add();
  };
  for (const ShardQueue::Settled& settled : queue_.takeSettled()) {
    const auto it = jobsInFlight_.find(settled.job);
    if (it == jobsInFlight_.end()) continue;
    const JobState js = std::move(it->second);
    jobsInFlight_.erase(it);

    Frame reply;
    if (settled.ok) {
      JobOutcome outcome = queue_.takeOutcome(settled.job);
      std::string bytes = outcome.merged.serialize();
      // Insert even when the owner vanished: the work is done, the next
      // identical submission should hit.
      cache_.insert(js.fingerprint, bytes);
      lastFleet_ = std::move(outcome.fleet);
      metrics_.counter("grid.jobs").add();
      reply = Frame{FrameType::Result,
                    encodeJobResultMsg(
                        JobResultMsg{false, js.fingerprint,
                                     std::move(bytes)})};
    } else {
      metrics_.counter("grid.jobs.failed").add();
      reply = Frame{FrameType::Error, settled.error};
    }

    Conn* owner = js.owner;
    if (!owner || owner->closing) continue;
    owner->job = 0;
    if (const auto ws = tryWriteFrame(owner->fd.get(), reply, timeout);
        ws != WriteStatus::Ok) {
      noteDrop(ws);
      owner->closing = true;
      continue;
    }
    owner->lastActivity = Clock::now();
    // The client may have pipelined its next request while this job ran.
    processConn(*owner);
  }
}

void GridServer::dropConnDeadlined(Conn& conn) {
  // The peer connected and went silent (stalled client, half-open socket
  // after a crash, a dial-in that never said hello).  Drop it; the
  // daemon must keep serving.
  metrics_.counter("grid.conn.timeout").add();
  metrics_.counter("grid.conn.dropped").add();
  conn.closing = true;
}

obs::RunReport GridServer::statsReport() const {
  // Start from the last job's fleet view (phases, shards, context labels)
  // and overlay the server-lifetime grid.* counters on top of the fleet's
  // engine counters.
  obs::RunReport report = lastFleet_;
  for (const auto& [name, value] : metrics_.counterValues())
    report.counters[name] = value;
  // Persistence failures live in the cache, not the registry; surface the
  // current truth (the pre-registered zero is overwritten on damage).
  report.counters["grid.cache.persist_errors"] = cache_.persistFailures();
  // Worker provenance: one point-in-time row per live channel, so `stats`
  // answers WHO is doing the work (transport kind, peer, shards done).
  std::size_t idx = 0;
  for (const WorkerFleet::Provenance& row : fleet_.provenance()) {
    report.counters["grid.channel." + std::to_string(idx++) + "." +
                    row.kind + "." + row.peer + ".completed"] =
        row.completed;
  }
  return report;
}

}  // namespace pred::grid
