#pragma once
// worker_channel.h — The transport seam between the shard queue and the
// workers that evaluate shards.
//
// A WorkerChannel is ONE worker the scheduler can dispatch to, whatever
// its transport.  The contract is small and event-driven so one poll()
// loop, WorkerFleet::step, can multiplex any mix of them:
//
//   dispatch(token, spec)  hand the worker a shard under a lease token
//   pollFd()               the fd to poll for results/liveness
//   drain()                consume readable bytes, yield ChannelEvents
//   shutdown()/kill()      graceful / immediate stop
//
// Two transports implement it:
//
//   SocketChannel  a worker speaking the worker conversation of
//                  protocol.h (WorkerHello/WorkerWelcome, then ShardAssign/
//                  ShardDone with lease ids, `concurrency` shards in flight,
//                  completing out of order).  Either the server adopted it
//                  after a dial-in handshake, or the fleet spawned it: a
//                  `<workerCommand> attach -` child on a socketpair, whose
//                  pid the channel owns (SIGKILL + waitpid on death, a ~2 s
//                  grace on shutdown).  A spawned channel has capacity 0
//                  until its WorkerHello passes the same code-version salt
//                  check as a dial-in.  Death is EOF / POLLHUP / write-EPIPE
//                  / timeout; a kill -9'd worker is indistinguishable from a
//                  vanished one, and its leases are requeued.
//   LocalChannel   an in-process evaluator thread (the --in-process
//                  mode); a self-pipe makes completions poll()-able so
//                  local evaluation multiplexes like any other channel.
//                  A throwing evaluator is a failed attempt, never a
//                  death — local channels are immortal, and they never
//                  touch the network layer (or its fault points).
//
// A WorkerFleet owns a set of channels and the policies around them:
// fixed slots (spawned children with a bounded respawn budget, or local
// threads) plus dynamically adopted dial-in workers, shard dispatch from
// a ShardQueue, per-shard wall-time deadlines, a hello deadline for
// spawned children, heartbeat staleness for idle dial-ins, and the
// grid.worker.* counters.

#include <poll.h>
#include <sys/types.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "exp/shard.h"
#include "grid/net.h"
#include "grid/scheduler.h"

namespace pred::grid {

/// One thing a channel has to tell the driver after a drain: a shard
/// completed, a shard attempt failed (worker stays healthy), the channel
/// itself died (the driver requeues every lease it still holds), or a
/// spawned child's hello failed the salt check (a death the driver also
/// counts in grid.worker.rejected_salt).
struct ChannelEvent {
  enum class Kind { Done, Failed, Died, Rejected };
  Kind kind = Kind::Died;
  std::uint64_t token = 0;           ///< lease token (Done / Failed)
  std::optional<ShardOutput> output; ///< engaged on Done only
  std::string why;                   ///< Failed / Died / Rejected
};

/// The handshake's admission rule, shared by dial-ins and spawned
/// children: "" when `salt` is this build's kCodeVersionSalt, otherwise
/// the Error text to send back.
std::string saltMismatch(const std::string& salt);

class WorkerChannel {
 public:
  using Clock = std::chrono::steady_clock;

  virtual ~WorkerChannel() = default;

  virtual const char* kindName() const = 0;  ///< "socket" | "local"
  virtual const std::string& peer() const = 0;
  virtual int pollFd() const = 0;
  virtual bool alive() const = 0;
  /// Shards this worker runs concurrently (1 for local).
  virtual std::size_t capacity() const { return 1; }
  /// Local channels turn transport-layer dispatch faults into failed
  /// attempts instead of channel deaths (there is no transport to kill).
  virtual bool isLocal() const { return false; }

  /// Hands the worker one shard under `token`.  Throws on transport
  /// failure (EPIPE to a corpse); the caller then kills the channel.
  virtual void dispatch(std::uint64_t token, const exp::ShardSpec& spec) = 0;
  /// Consumes readable bytes from pollFd() and returns what happened.
  virtual std::vector<ChannelEvent> drain() = 0;
  /// POLLHUP/POLLERR without readable data.
  virtual std::vector<ChannelEvent> hangup() = 0;
  /// Graceful stop (Shutdown frame, grace period).  Never throws.
  virtual void shutdown() = 0;
  /// Immediate stop (SIGKILL / close).  Never throws.
  virtual void kill() = 0;

  std::size_t inFlightCount() const { return inFlight_.size(); }
  /// Removes and returns every lease still in flight — the death path.
  std::vector<std::uint64_t> takeInFlightTokens();
  /// Dispatch time of the oldest in-flight lease (shard-deadline input).
  std::optional<Clock::time_point> oldestDispatchTime() const;
  /// Last time the worker was heard from (heartbeat-staleness input).
  Clock::time_point lastHeard() const { return lastHeard_; }
  std::uint64_t completedCount() const { return completedCount_; }

 protected:
  struct InFlight {
    std::uint64_t token;
    Clock::time_point since;
  };

  void noteDispatched(std::uint64_t token);
  /// Clears `token` from the in-flight set; false when it was not held
  /// (a worker answering a lease it does not hold — protocol violation).
  bool noteSettled(std::uint64_t token);

  std::vector<InFlight> inFlight_;
  std::uint64_t completedCount_ = 0;
  Clock::time_point lastHeard_ = Clock::now();
};

/// A worker speaking the worker conversation over a stream socket:
/// ShardAssign frames out, ShardDone / Heartbeat frames back,
/// `concurrency` leases in flight.
class SocketChannel final : public WorkerChannel {
 public:
  /// Wraps a connected worker socket.  A dial-in the server already
  /// handshook passes its announced concurrency; 0 means the worker has
  /// not said hello yet, so its first frame must be a WorkerHello that
  /// passes the salt check.  `pendingBytes` carries anything read past a
  /// dial-in's WorkerHello frame (an eager worker may pipeline a
  /// heartbeat).
  SocketChannel(net::Fd fd, std::string peer, std::size_t concurrency,
                std::string pendingBytes = {});
  /// Spawns `argv` + {"attach", "-"} with the child's socketpair end on
  /// its stdin (throws std::runtime_error on socketpair/fork failure).
  static std::unique_ptr<SocketChannel> spawn(
      const std::vector<std::string>& argv);
  ~SocketChannel() override;

  const char* kindName() const override { return "socket"; }
  const std::string& peer() const override { return peer_; }
  int pollFd() const override { return fd_.get(); }
  bool alive() const override { return alive_; }
  /// 0 until the worker's hello has passed the salt check.
  std::size_t capacity() const override { return concurrency_; }

  void dispatch(std::uint64_t token, const exp::ShardSpec& spec) override;
  std::vector<ChannelEvent> drain() override;
  std::vector<ChannelEvent> hangup() override;
  /// Shutdown frame; a spawned child then gets ~2 s to exit before the
  /// SIGKILL.
  void shutdown() override;
  /// Closes the socket; a spawned child is SIGKILLed and reaped.
  void kill() override;

 private:
  std::vector<ChannelEvent> die(
      const std::string& why,
      ChannelEvent::Kind kind = ChannelEvent::Kind::Died);

  net::Fd fd_;
  pid_t pid_ = -1;  ///< spawned child, -1 for a dial-in or once reaped
  std::string peer_;
  std::size_t concurrency_ = 0;
  std::string buf_;      ///< incremental frame decode buffer
  std::size_t off_ = 0;  ///< decode offset into buf_
  bool alive_ = true;
};

/// An in-process evaluator thread behind the same seam: dispatch mails
/// the shard to the thread, completion writes one byte to a self-pipe so
/// the driver's poll() wakes, drain() collects the results.
class LocalChannel final : public WorkerChannel {
 public:
  LocalChannel(ShardEvalFn eval, int index);
  ~LocalChannel() override;

  const char* kindName() const override { return "local"; }
  const std::string& peer() const override { return peer_; }
  int pollFd() const override { return signalRead_.get(); }
  bool alive() const override { return !stopped_; }
  bool isLocal() const override { return true; }

  void dispatch(std::uint64_t token, const exp::ShardSpec& spec) override;
  std::vector<ChannelEvent> drain() override;
  std::vector<ChannelEvent> hangup() override;
  void shutdown() override;
  void kill() override;

 private:
  struct Task {
    std::uint64_t token;
    exp::ShardSpec spec;
  };
  struct Outcome {
    std::uint64_t token = 0;
    std::optional<ShardOutput> output;  ///< engaged on success
    std::string why;
  };

  void stop();

  ShardEvalFn eval_;
  std::string peer_;
  net::Fd signalRead_, signalWrite_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Task> tasks_;
  std::deque<Outcome> outcomes_;
  bool quitting_ = false;
  bool stopped_ = false;
  std::thread worker_;
};

struct FleetConfig {
  /// Fixed spawned-child slots (respawned on death up to
  /// maxSpawnsPerSlot).
  int spawnSlots = 0;
  /// Fixed in-process evaluator threads (immortal).
  int localSlots = 0;
  /// Evaluator for local slots; required when localSlots > 0.
  ShardEvalFn eval;
  /// argv prefix for spawned slots; "attach -" is appended.
  std::vector<std::string> workerCommand;
  int maxSpawnsPerSlot = 4;
  /// Per-shard wall-time budget; a channel that exceeds it is killed and
  /// its leases requeued.  0 disables.
  std::uint64_t shardTimeoutMs = 0;
  /// Staleness bound for IDLE dial-in workers: one that has not been
  /// heard from (heartbeats count) within this window is treated as
  /// half-open and dropped.  0 disables.
  std::uint64_t idleWorkerTimeoutMs = 0;
  /// Hello deadline for spawned children: one whose WorkerHello has not
  /// passed the salt check this long after its spawn is killed and counted
  /// as a death (then respawned within maxSpawnsPerSlot).  The server
  /// passes its connTimeoutMs, the deadline a silent dial-in gets.  0
  /// disables.
  std::uint64_t helloTimeoutMs = 0;
  /// When set, grid.worker.spawns / .deaths / .rejected_salt land here.
  obs::MetricsRegistry* metrics = nullptr;
};

/// The channel set one driver loop multiplexes, with the policies around
/// it: dispatch from a ShardQueue, death -> requeue leases + respawn
/// (spawned slot) or remove (dial-in), deadlines, and provenance for
/// stats.
class WorkerFleet {
 public:
  using Clock = WorkerChannel::Clock;

  explicit WorkerFleet(FleetConfig cfg);
  ~WorkerFleet();

  WorkerFleet(const WorkerFleet&) = delete;
  WorkerFleet& operator=(const WorkerFleet&) = delete;

  /// Adopts a handshook dial-in worker into the fleet.
  void adopt(std::unique_ptr<WorkerChannel> ch);

  /// True when the fleet was configured with fixed slots and every one
  /// of them is retired/dead with no attached worker left — no dispatch
  /// can ever succeed again unless a new worker attaches.
  bool exhausted() const;
  std::uint64_t deaths() const { return deaths_; }

  /// Fills every channel's spare capacity from the queue.
  void dispatch(ShardQueue& queue);
  /// One turn of the event loop.  Appends one pollfd per live channel
  /// after the caller's own `fds`, sleeps until an fd is ready, the
  /// queue's earliest backoff gate, the fleet's earliest deadline, or
  /// `until` — whichever comes first — then drains or hangs up the ready
  /// channels and enforces deadlines.  On return `fds` holds only the
  /// caller's entries again, with their revents filled in.
  void step(ShardQueue& queue, std::vector<pollfd>& fds,
            std::optional<Clock::time_point> until = std::nullopt);

  void shutdownAll();
  void killAll();

  /// Who is doing the work: one row per live channel.
  struct Provenance {
    std::string kind;
    std::string peer;
    std::uint64_t completed = 0;
  };
  std::vector<Provenance> provenance() const;

 private:
  struct Slot {
    std::unique_ptr<WorkerChannel> ch;
    int spawns = 0;
    Clock::time_point spawnedAt;  ///< of the current child
  };

  void spawnSlot(Slot& slot);
  /// A live spawned child that has not passed its hello yet.
  static bool awaitingHello(const Slot& slot);
  /// Whether `ch` is still a live member (an earlier fd's death handling
  /// may have destroyed it).
  bool owns(const WorkerChannel* ch) const;
  void handleEvents(WorkerChannel* ch, std::vector<ChannelEvent> events,
                    ShardQueue& queue);
  void channelDied(WorkerChannel* ch, const std::string& why,
                   ShardQueue& queue);
  /// Enforces shard deadlines, spawned children's hello deadline and
  /// idle-worker staleness.
  void checkDeadlines(ShardQueue& queue);
  /// Earliest pending deadline (poll-timeout input).
  std::optional<Clock::time_point> nextDeadline() const;
  template <typename Fn>
  void forEachChannel(Fn&& fn) const;

  FleetConfig cfg_;
  std::vector<Slot> slots_;
  std::vector<std::unique_ptr<WorkerChannel>> attached_;
  std::uint64_t deaths_ = 0;
};

}  // namespace pred::grid
