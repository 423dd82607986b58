#include "grid/worker_channel.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "grid/faultpoint.h"
#include "grid/fingerprint.h"
#include "grid/protocol.h"

namespace pred::grid {

namespace {

void setCloexec(int fd) { ::fcntl(fd, F_SETFD, FD_CLOEXEC); }

/// Appends decoded-frame bookkeeping: once the decode offset trails a
/// megabyte of consumed bytes, compact the buffer.
void compactBuffer(std::string& buf, std::size_t& off) {
  if (off == buf.size()) {
    buf.clear();
    off = 0;
  } else if (off > (std::size_t{1} << 20)) {
    buf.erase(0, off);
    off = 0;
  }
}

}  // namespace

std::string saltMismatch(const std::string& salt) {
  if (salt == kCodeVersionSalt) return {};
  return "grid server: code-version salt mismatch (server " +
         std::string(kCodeVersionSalt) + ", worker " + salt + ")";
}

// ---------------------------------------------------------- WorkerChannel

std::vector<std::uint64_t> WorkerChannel::takeInFlightTokens() {
  std::vector<std::uint64_t> tokens;
  tokens.reserve(inFlight_.size());
  for (const InFlight& f : inFlight_) tokens.push_back(f.token);
  inFlight_.clear();
  return tokens;
}

std::optional<WorkerChannel::Clock::time_point>
WorkerChannel::oldestDispatchTime() const {
  std::optional<Clock::time_point> t;
  for (const InFlight& f : inFlight_)
    if (!t || f.since < *t) t = f.since;
  return t;
}

void WorkerChannel::noteDispatched(std::uint64_t token) {
  inFlight_.push_back({token, Clock::now()});
}

bool WorkerChannel::noteSettled(std::uint64_t token) {
  for (std::size_t k = 0; k < inFlight_.size(); ++k) {
    if (inFlight_[k].token == token) {
      inFlight_.erase(inFlight_.begin() + static_cast<std::ptrdiff_t>(k));
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------- SocketChannel

SocketChannel::SocketChannel(net::Fd fd, std::string peer,
                             std::size_t concurrency,
                             std::string pendingBytes)
    : fd_(std::move(fd)),
      peer_(std::move(peer)),
      concurrency_(concurrency),
      buf_(std::move(pendingBytes)) {}

std::unique_ptr<SocketChannel> SocketChannel::spawn(
    const std::vector<std::string>& argv) {
  std::vector<std::string> full = argv;
  full.push_back("attach");
  full.push_back("-");
  // Built before fork: the child of a threaded parent must not allocate.
  std::vector<char*> cargv;
  for (std::string& a : full) cargv.push_back(a.data());
  cargv.push_back(nullptr);

  // CLOEXEC on both ends: no child may inherit another child's socket — a
  // stray copy would defeat EOF-based death detection.
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0)
    throw std::runtime_error(std::string("grid worker: socketpair: ") +
                             std::strerror(errno));
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    throw std::runtime_error(std::string("grid worker: fork: ") +
                             std::strerror(errno));
  }
  if (pid == 0) {
    // The child's end becomes its stdin (sv[1] > sv[0] >= 0, so never
    // already fd 0); dup2 clears CLOEXEC on the copy.
    ::dup2(sv[1], STDIN_FILENO);
    ::execvp(cargv[0], cargv.data());
    // Exec failed; stderr is still the parent's.
    ::perror("pred-grid worker exec");
    ::_exit(127);
  }
  ::close(sv[1]);
  auto ch = std::make_unique<SocketChannel>(
      net::Fd(sv[0]), "child:pid=" + std::to_string(static_cast<long>(pid)),
      /*concurrency=*/0);
  ch->pid_ = pid;
  return ch;
}

SocketChannel::~SocketChannel() { kill(); }

std::vector<ChannelEvent> SocketChannel::die(const std::string& why,
                                             ChannelEvent::Kind kind) {
  alive_ = false;
  fd_.reset();
  ChannelEvent ev;
  ev.kind = kind;
  ev.why = why;
  return {std::move(ev)};
}

void SocketChannel::dispatch(std::uint64_t token,
                             const exp::ShardSpec& spec) {
  fault::check("worker.frame");
  ShardAssignMsg msg;
  msg.id = token;
  msg.spec = spec;
  writeFrame(fd_.get(),
             Frame{FrameType::ShardAssign, encodeShardAssignMsg(msg)});
  noteDispatched(token);
  if (pid_ > 0) {
    try {
      fault::check("worker.exit");
    } catch (const fault::Injected&) {
      // Kill the child holding the lease, but leave the socket open: the
      // EOF takes the real death path (requeue, respawn).
      ::kill(pid_, SIGKILL);
    }
  }
}

std::vector<ChannelEvent> SocketChannel::drain() {
  char chunk[65536];
  const ssize_t r = ::read(fd_.get(), chunk, sizeof chunk);
  if (r < 0) {
    if (errno == EINTR || errno == EAGAIN) return {};
    return die(std::string("worker read error: ") + std::strerror(errno));
  }
  if (r == 0) return die("worker closed its socket (EOF)");
  lastHeard_ = Clock::now();
  buf_.append(chunk, static_cast<std::size_t>(r));
  std::vector<ChannelEvent> events;
  try {
    fault::check("worker.frame");
    while (std::optional<Frame> f = decodeFrame(buf_, off_)) {
      if (f->type == FrameType::Heartbeat) continue;  // liveness only
      if (concurrency_ == 0) {
        // Not welcomed yet (a spawned child): only a WorkerHello that
        // passes the salt check opens the channel for shards.
        if (f->type != FrameType::WorkerHello)
          throw std::invalid_argument(
              "worker did not open with WorkerHello");
        const WorkerHelloMsg hello = parseWorkerHelloMsg(f->payload);
        if (const std::string why = saltMismatch(hello.salt); !why.empty()) {
          try {
            writeFrame(fd_.get(), Frame{FrameType::Error, why},
                       /*timeoutMs=*/1000);
          } catch (...) {
            // Already gone; the rejection stands either way.
          }
          return die(why, ChannelEvent::Kind::Rejected);
        }
        writeFrame(fd_.get(), Frame{FrameType::WorkerWelcome, ""});
        concurrency_ = hello.concurrency;
      } else if (f->type == FrameType::ShardDone) {
        ShardDoneMsg msg = parseShardDoneMsg(f->payload);
        if (!noteSettled(msg.id))
          throw std::invalid_argument(
              "worker answered a lease it does not hold");
        ChannelEvent ev;
        ev.token = msg.id;
        if (msg.ok) {
          ev.kind = ChannelEvent::Kind::Done;
          ev.output =
              ShardOutput{core::StreamingMeasures::deserialize(
                              msg.accumulatorText),
                          obs::RunReport::deserialize(msg.reportText)};
          ++completedCount_;
        } else {
          ev.kind = ChannelEvent::Kind::Failed;
          ev.why = "worker error: " + msg.errorText;
        }
        events.push_back(std::move(ev));
      } else if (f->type == FrameType::Error) {
        throw std::invalid_argument("worker reported: " + f->payload);
      } else {
        throw std::invalid_argument("unexpected frame type from worker");
      }
    }
    compactBuffer(buf_, off_);
  } catch (const std::exception& e) {
    // A worker speaking garbage is as dead as one that exited: its
    // stream can't be resynchronized.  Earlier well-formed results in
    // this drain still count.
    std::vector<ChannelEvent> death =
        die(std::string("worker protocol violation: ") + e.what());
    events.push_back(std::move(death.front()));
  }
  return events;
}

std::vector<ChannelEvent> SocketChannel::hangup() {
  return die("worker hung up");
}

void SocketChannel::shutdown() {
  if (alive_) {
    try {
      writeFrame(fd_.get(), Frame{FrameType::Shutdown, ""},
                 /*timeoutMs=*/1000);
    } catch (...) {
      // Peer already gone.
    }
  }
  alive_ = false;
  fd_.reset();
  for (int spin = 0; pid_ > 0 && spin < 200; ++spin) {  // ~2 s grace
    const pid_t r = ::waitpid(pid_, nullptr, WNOHANG);
    if (r == pid_ || (r < 0 && errno != EINTR)) {
      pid_ = -1;  // exited and reaped: nothing left to SIGKILL
    } else {
      ::usleep(10'000);
    }
  }
  kill();
}

void SocketChannel::kill() {
  alive_ = false;
  fd_.reset();
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);  // no-op if already exited
    while (::waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }
}

// ----------------------------------------------------------- LocalChannel

LocalChannel::LocalChannel(ShardEvalFn eval, int index)
    : eval_(std::move(eval)),
      peer_("local:thread-" + std::to_string(index)) {
  if (!eval_)
    throw std::invalid_argument("grid worker: null local evaluator");
  int sig[2];
  if (::pipe(sig) != 0)
    throw std::runtime_error(std::string("grid worker: pipe: ") +
                             std::strerror(errno));
  setCloexec(sig[0]);
  setCloexec(sig[1]);
  // Non-blocking read end: drain() slurps whatever wakeup bytes are
  // pending and must not block when they land on a read-size boundary.
  ::fcntl(sig[0], F_SETFL, O_NONBLOCK);
  signalRead_.reset(sig[0]);
  signalWrite_.reset(sig[1]);
  worker_ = std::thread([this] {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      cv_.wait(lk, [this] { return quitting_ || !tasks_.empty(); });
      if (quitting_) return;
      Task task = std::move(tasks_.front());
      tasks_.pop_front();
      lk.unlock();
      Outcome oc;
      oc.token = task.token;
      try {
        oc.output.emplace(eval_(task.spec));
      } catch (const std::exception& e) {
        oc.why = e.what();
      }
      lk.lock();
      outcomes_.push_back(std::move(oc));
      // Self-pipe wakeup: one byte per outcome.  Deliberately a raw
      // write — net::writeAll would hit the net.write fault point and
      // inject transport faults into an in-process evaluation.
      const char b = 1;
      while (::write(signalWrite_.get(), &b, 1) < 0 && errno == EINTR) {
      }
    }
  });
}

LocalChannel::~LocalChannel() { stop(); }

void LocalChannel::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopped_) return;
    quitting_ = true;
    stopped_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

void LocalChannel::dispatch(std::uint64_t token,
                            const exp::ShardSpec& spec) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    tasks_.push_back(Task{token, spec});
  }
  cv_.notify_all();
  noteDispatched(token);
}

std::vector<ChannelEvent> LocalChannel::drain() {
  char sink[256];
  while (::read(signalRead_.get(), sink, sizeof sink) > 0) {
  }
  std::deque<Outcome> ready;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ready.swap(outcomes_);
  }
  std::vector<ChannelEvent> events;
  for (Outcome& oc : ready) {
    ChannelEvent ev;
    ev.token = oc.token;
    if (oc.output) {
      ev.kind = ChannelEvent::Kind::Done;
      ev.output = std::move(oc.output);
      ++completedCount_;
    } else {
      ev.kind = ChannelEvent::Kind::Failed;
      ev.why = std::move(oc.why);
    }
    noteSettled(oc.token);
    events.push_back(std::move(ev));
  }
  return events;
}

std::vector<ChannelEvent> LocalChannel::hangup() { return {}; }

void LocalChannel::shutdown() { stop(); }

void LocalChannel::kill() { stop(); }

// ------------------------------------------------------------ WorkerFleet

WorkerFleet::WorkerFleet(FleetConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.maxSpawnsPerSlot < 1) cfg_.maxSpawnsPerSlot = 1;
  if (cfg_.spawnSlots > 0 && cfg_.workerCommand.empty())
    throw std::invalid_argument(
        "grid fleet: spawned slots need a worker command");
  if (cfg_.localSlots > 0 && !cfg_.eval)
    throw std::invalid_argument(
        "grid fleet: local slots need an evaluator");
  slots_.resize(static_cast<std::size_t>(
      (cfg_.spawnSlots > 0 ? cfg_.spawnSlots : 0) +
      (cfg_.localSlots > 0 ? cfg_.localSlots : 0)));
  std::size_t s = 0;
  for (int k = 0; k < cfg_.spawnSlots; ++k, ++s) spawnSlot(slots_[s]);
  for (int k = 0; k < cfg_.localSlots; ++k, ++s)
    slots_[s].ch = std::make_unique<LocalChannel>(cfg_.eval, k);
}

WorkerFleet::~WorkerFleet() { killAll(); }

void WorkerFleet::spawnSlot(Slot& slot) {
  slot.ch = SocketChannel::spawn(cfg_.workerCommand);
  slot.spawnedAt = Clock::now();
  ++slot.spawns;
  if (cfg_.metrics) cfg_.metrics->counter("grid.worker.spawns").add();
}

bool WorkerFleet::awaitingHello(const Slot& slot) {
  return slot.spawns > 0 && slot.ch && slot.ch->alive() &&
         slot.ch->capacity() == 0;
}

void WorkerFleet::adopt(std::unique_ptr<WorkerChannel> ch) {
  attached_.push_back(std::move(ch));
}

template <typename Fn>
void WorkerFleet::forEachChannel(Fn&& fn) const {
  for (const Slot& slot : slots_)
    if (slot.ch) fn(slot.ch.get());
  for (const auto& ch : attached_) fn(ch.get());
}

bool WorkerFleet::exhausted() const {
  bool anyAlive = false;
  forEachChannel([&](WorkerChannel* ch) { anyAlive |= ch->alive(); });
  return !slots_.empty() && !anyAlive;
}

bool WorkerFleet::owns(const WorkerChannel* target) const {
  bool found = false;
  forEachChannel([&](WorkerChannel* ch) { found = found || ch == target; });
  return found;
}

void WorkerFleet::channelDied(WorkerChannel* ch, const std::string& why,
                              ShardQueue& queue) {
  for (const std::uint64_t token : ch->takeInFlightTokens())
    queue.failed(token, why);
  ++deaths_;
  if (cfg_.metrics) cfg_.metrics->counter("grid.worker.deaths").add();
  for (Slot& slot : slots_) {
    if (slot.ch.get() != ch) continue;
    slot.ch->kill();
    if (slot.spawns > 0 && slot.spawns < cfg_.maxSpawnsPerSlot)
      spawnSlot(slot);
    else if (slot.spawns > 0)
      slot.ch.reset();  // retired slot (spawn budget exhausted)
    return;
  }
  for (std::size_t k = 0; k < attached_.size(); ++k) {
    if (attached_[k].get() != ch) continue;
    attached_[k]->kill();
    attached_.erase(attached_.begin() + static_cast<std::ptrdiff_t>(k));
    return;
  }
}

void WorkerFleet::handleEvents(WorkerChannel* ch,
                               std::vector<ChannelEvent> events,
                               ShardQueue& queue) {
  for (ChannelEvent& ev : events) {
    switch (ev.kind) {
      case ChannelEvent::Kind::Done:
        queue.completed(ev.token, std::move(*ev.output));
        break;
      case ChannelEvent::Kind::Failed:
        queue.failed(ev.token, ev.why);
        break;
      case ChannelEvent::Kind::Rejected:
        if (cfg_.metrics)
          cfg_.metrics->counter("grid.worker.rejected_salt").add();
        [[fallthrough]];
      case ChannelEvent::Kind::Died:
        channelDied(ch, ev.why, queue);
        return;  // the channel object may be gone now
    }
  }
}

void WorkerFleet::dispatch(ShardQueue& queue) {
  // Fixed slots first, attached workers after — deterministic assignment
  // order, one steal per free capacity unit.
  const std::size_t nSlots = slots_.size();
  for (std::size_t s = 0; s < nSlots + attached_.size(); ++s) {
    WorkerChannel* ch = s < nSlots ? slots_[s].ch.get()
                                   : attached_[s - nSlots].get();
    if (!ch || !ch->alive()) continue;
    while (ch->alive() && ch->inFlightCount() < ch->capacity()) {
      std::optional<ShardQueue::Lease> lease = queue.steal(
          WorkerChannel::Clock::now());
      if (!lease) return;  // nothing eligible for anyone right now
      try {
        fault::check("sched.dispatch");
        ch->dispatch(lease->token, *lease->spec);
      } catch (const std::exception& e) {
        if (ch->isLocal()) {
          // No transport to kill: an injected dispatch fault is a failed
          // attempt, same as a throwing evaluator.
          queue.failed(lease->token, e.what());
          continue;
        }
        // The write found a corpse (EPIPE) or the frame path faulted.
        // The shard is not charged for a dispatch that never arrived.
        queue.abandon(lease->token);
        channelDied(ch, std::string("worker unreachable: ") + e.what(),
                    queue);
        break;  // this channel is gone (possibly respawned) — next one
      }
    }
  }
}

void WorkerFleet::step(ShardQueue& queue, std::vector<pollfd>& fds,
                       std::optional<Clock::time_point> until) {
  const std::size_t own = fds.size();
  std::vector<WorkerChannel*> chans;
  forEachChannel([&](WorkerChannel* ch) {
    if (!ch->alive() || ch->pollFd() < 0) return;
    fds.push_back({ch->pollFd(), POLLIN, 0});
    chans.push_back(ch);
  });

  // Sleep until the next event: a ready fd, the earliest backoff gate,
  // the earliest deadline, or the caller's own wake-up time.  +1 ms so
  // poll's truncation never wakes just BEFORE the instant it waits for.
  std::optional<Clock::time_point> wake = until;
  for (const auto t : {queue.earliestGate(), nextDeadline()})
    if (t && (!wake || *t < *wake)) wake = t;
  int timeoutMs = -1;
  if (wake) {
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        *wake - Clock::now())
                        .count();
    timeoutMs = (ms < 0 ? 0 : ms > 60000 ? 60000 : static_cast<int>(ms)) + 1;
  }
  const int rc = ::poll(fds.data(), fds.size(), timeoutMs);
  if (rc < 0 && errno != EINTR)
    throw std::runtime_error(std::string("grid fleet: poll: ") +
                             std::strerror(errno));

  for (std::size_t k = 0; rc > 0 && k < chans.size(); ++k) {
    const short revents = fds[own + k].revents;
    WorkerChannel* ch = chans[k];
    // A channel may have been destroyed handling an earlier fd.
    if (revents == 0 || !owns(ch) || !ch->alive()) continue;
    // POLLHUP with pending data still drains; read() returning 0 is the
    // one true EOF signal.
    handleEvents(ch, (revents & POLLIN) ? ch->drain() : ch->hangup(),
                 queue);
  }
  fds.resize(own);
  checkDeadlines(queue);
}

void WorkerFleet::checkDeadlines(ShardQueue& queue) {
  const auto now = Clock::now();
  if (cfg_.shardTimeoutMs > 0) {
    const auto budget = std::chrono::milliseconds(cfg_.shardTimeoutMs);
    // Collect first: channelDied mutates the channel containers.
    std::vector<WorkerChannel*> late;
    forEachChannel([&](WorkerChannel* ch) {
      if (!ch->alive() || ch->isLocal()) return;
      const auto oldest = ch->oldestDispatchTime();
      if (oldest && *oldest + budget <= now) late.push_back(ch);
    });
    for (WorkerChannel* ch : late)
      if (owns(ch)) channelDied(ch, "shard timeout exceeded", queue);
  }
  if (cfg_.helloTimeoutMs > 0) {
    const auto budget = std::chrono::milliseconds(cfg_.helloTimeoutMs);
    std::vector<WorkerChannel*> silent;
    for (const Slot& slot : slots_)
      if (awaitingHello(slot) && slot.spawnedAt + budget <= now)
        silent.push_back(slot.ch.get());
    for (WorkerChannel* ch : silent)
      if (owns(ch))
        channelDied(ch, "spawned worker never said hello", queue);
  }
  if (cfg_.idleWorkerTimeoutMs > 0) {
    const auto budget =
        std::chrono::milliseconds(cfg_.idleWorkerTimeoutMs);
    std::vector<WorkerChannel*> stale;
    for (const auto& ch : attached_)
      if (ch->alive() && ch->inFlightCount() == 0 &&
          ch->lastHeard() + budget <= now)
        stale.push_back(ch.get());
    for (WorkerChannel* ch : stale)
      if (owns(ch))
        channelDied(ch, "worker heartbeat lost (half-open socket)", queue);
  }
}

std::optional<WorkerFleet::Clock::time_point> WorkerFleet::nextDeadline()
    const {
  std::optional<Clock::time_point> t;
  const auto consider = [&](Clock::time_point c) {
    if (!t || c < *t) t = c;
  };
  if (cfg_.shardTimeoutMs > 0) {
    const auto budget = std::chrono::milliseconds(cfg_.shardTimeoutMs);
    forEachChannel([&](WorkerChannel* ch) {
      if (!ch->alive() || ch->isLocal()) return;
      if (const auto oldest = ch->oldestDispatchTime())
        consider(*oldest + budget);
    });
  }
  if (cfg_.helloTimeoutMs > 0) {
    const auto budget = std::chrono::milliseconds(cfg_.helloTimeoutMs);
    for (const Slot& slot : slots_)
      if (awaitingHello(slot)) consider(slot.spawnedAt + budget);
  }
  if (cfg_.idleWorkerTimeoutMs > 0) {
    const auto budget =
        std::chrono::milliseconds(cfg_.idleWorkerTimeoutMs);
    for (const auto& ch : attached_)
      if (ch->alive() && ch->inFlightCount() == 0)
        consider(ch->lastHeard() + budget);
  }
  return t;
}

void WorkerFleet::shutdownAll() {
  forEachChannel([](WorkerChannel* ch) { ch->shutdown(); });
}

void WorkerFleet::killAll() {
  forEachChannel([](WorkerChannel* ch) { ch->kill(); });
}

std::vector<WorkerFleet::Provenance> WorkerFleet::provenance() const {
  std::vector<Provenance> rows;
  forEachChannel([&](WorkerChannel* ch) {
    if (!ch->alive()) return;
    rows.push_back(
        Provenance{ch->kindName(), ch->peer(), ch->completedCount()});
  });
  return rows;
}

}  // namespace pred::grid
