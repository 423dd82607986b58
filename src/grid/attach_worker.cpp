#include "grid/attach_worker.h"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "grid/fingerprint.h"
#include "grid/protocol.h"

namespace pred::grid {

namespace {

/// The ShardDone/Heartbeat writer side shared by the evaluator pool and
/// the main loop: frame writes interleave whole, never torn.
struct ReplyLine {
  int fd = -1;
  std::mutex mu;

  void send(const Frame& frame) {
    std::lock_guard<std::mutex> lock(mu);
    writeFrame(fd, frame);
  }
};

}  // namespace

int runAttachWorker(const std::string& endpointText, ShardEvalFn eval,
                    const AttachOptions& options) {
  return runAttachWorker(net::connectTo(net::parseEndpoint(endpointText),
                                        options.connectTimeoutMs),
                         std::move(eval), options);
}

int runAttachWorker(net::Fd fd, ShardEvalFn eval,
                    const AttachOptions& options) {
  if (!eval)
    throw std::invalid_argument("attach worker: null shard evaluator");
  const std::size_t concurrency =
      options.concurrency == 0 ? 1 : options.concurrency;

  WorkerHelloMsg hello;
  hello.salt = options.salt.empty() ? std::string(kCodeVersionSalt)
                                    : options.salt;
  hello.concurrency = concurrency;
  writeFrame(fd.get(), Frame{FrameType::WorkerHello,
                             encodeWorkerHelloMsg(hello)});
  Frame welcome;
  if (!readFrame(fd.get(), welcome, options.connectTimeoutMs))
    throw std::runtime_error(
        "attach worker: server closed the connection during handshake");
  if (welcome.type == FrameType::Error)
    throw std::runtime_error("attach worker: rejected: " + welcome.payload);
  if (welcome.type != FrameType::WorkerWelcome)
    throw std::runtime_error(
        "attach worker: unexpected handshake reply from server");

  ReplyLine reply;
  reply.fd = fd.get();

  // Evaluator pool: the main loop only reads and enqueues, so a slow
  // shard can never stall heartbeats or the next assignment.
  std::mutex mu;
  std::condition_variable cv;
  std::deque<ShardAssignMsg> tasks;
  bool quitting = false;
  std::vector<std::thread> pool;
  pool.reserve(concurrency);
  for (std::size_t t = 0; t < concurrency; ++t) {
    pool.emplace_back([&] {
      std::unique_lock<std::mutex> lock(mu);
      for (;;) {
        cv.wait(lock, [&] { return quitting || !tasks.empty(); });
        if (tasks.empty()) return;  // quitting, queue drained
        ShardAssignMsg task = std::move(tasks.front());
        tasks.pop_front();
        lock.unlock();
        ShardDoneMsg done;
        done.id = task.id;
        try {
          const ShardOutput out = eval(task.spec);
          done.ok = true;
          done.accumulatorText = out.accumulator.serialize();
          done.reportText = out.report.serialize();
        } catch (const std::exception& e) {
          // Evaluation failure: this worker is still healthy — report
          // the attempt failed and keep serving.
          done.ok = false;
          done.errorText = e.what();
        }
        try {
          reply.send(Frame{FrameType::ShardDone,
                           encodeShardDoneMsg(done)});
        } catch (...) {
          // Server gone mid-reply; the main loop will see the EOF.
        }
        lock.lock();
      }
    });
  }

  const auto stopPool = [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      quitting = true;
    }
    cv.notify_all();
    for (std::thread& t : pool) t.join();
  };

  std::size_t received = 0;
  int exitCode = 0;
  try {
    for (;;) {
      pollfd pfd{fd.get(), POLLIN, 0};
      const int heartbeat =
          options.heartbeatMs == 0
              ? -1
              : static_cast<int>(options.heartbeatMs);
      const int rc = ::poll(&pfd, 1, heartbeat);
      if (rc < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error(std::string("attach worker: poll: ") +
                                 std::strerror(errno));
      }
      if (rc == 0) {
        // Quiet line: prove liveness.
        reply.send(Frame{FrameType::Heartbeat, ""});
        continue;
      }
      Frame frame;
      if (!readFrame(fd.get(), frame)) break;  // server EOF: clean exit
      if (frame.type == FrameType::Shutdown) break;
      if (frame.type != FrameType::ShardAssign) {
        reply.send(Frame{FrameType::Error,
                         "attach worker expects ShardAssign frames"});
        continue;
      }
      if (options.haveExitAfter && received >= options.exitAfter)
        ::_exit(3);  // see AttachOptions::exitAfter
      ShardAssignMsg assign = parseShardAssignMsg(frame.payload);
      ++received;
      {
        std::lock_guard<std::mutex> lock(mu);
        tasks.push_back(std::move(assign));
      }
      cv.notify_one();
    }
  } catch (...) {
    stopPool();
    throw;
  }
  stopPool();
  return exitCode;
}

}  // namespace pred::grid
