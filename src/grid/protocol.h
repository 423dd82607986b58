#pragma once
// protocol.h — The grid service's framed wire protocol.
//
// Every message between grid components — client <-> pred-grid-server,
// server <-> pred-shard-worker — is one length-prefixed frame over a
// socket, carrying an existing text wire format as its payload (ShardSpec,
// StreamingMeasures accumulator, RunReport).  The frame layer adds exactly
// what those formats lack for a byte stream: self-delimiting boundaries
// and a strict, bounded header.
//
//   offset  bytes  field
//        0      2  magic "PG"
//        2      1  protocol version (kProtocolVersion)
//        3      1  frame type (FrameType)
//        4      4  payload length, big-endian
//        8      n  payload bytes
//
// Strictness contract (the malformed-frame fuzz in tests/grid_test.cpp):
// bad magic, unknown version, unknown type, and a length beyond
// kMaxFramePayload all throw std::invalid_argument from the pure decoder —
// BEFORE any payload allocation, so an adversarial 4 GiB length cannot
// balloon memory.  A truncated prefix is "need more bytes" for the
// incremental decoder and a clean-EOF/truncation error for the blocking fd
// reader; neither path can hang on garbage, because the header is fixed
// size and the payload read is exact.
//
// Two conversations ride the framing, both in the payload codecs below.
//
// The client conversation: Submit carries a JobRequest (whole-grid
// ShardSpec + shard count), the server answers Result (JobResultMsg:
// cache-hit flag + fingerprint + accumulator bytes) or Error (message
// text).  Stats and Shutdown are header-only requests.
//
// The worker conversation — the same for a worker the server spawned
// (`pred-shard-worker attach -` on a socketpair) and one that dialed in:
// the worker opens with WorkerHello (WorkerHelloMsg: code-version salt +
// concurrency), the server answers WorkerWelcome (or Error — a salt
// mismatch is rejected at the door so a stale binary can never poison the
// result cache), then shards flow as ShardAssign (ShardAssignMsg: lease
// id + ShardSpec) answered by ShardDone (ShardDoneMsg: the same lease id
// + result or failure text).  The lease id lets a worker run several
// shards concurrently and complete them out of order.  Heartbeat is an
// idle-liveness tick in either direction.
//
// Type bytes 8 and 9 are retired (a one-shard-at-a-time pipe dialect) and
// decode as unknown types; they are never reassigned.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "exp/shard.h"

namespace pred::grid {

inline constexpr std::uint8_t kProtocolVersion = 1;

/// Largest payload a frame may carry.  Accumulator texts scale with
/// |Q| + |I|, not |Q| x |I|, so even million-cell grids stay far below
/// this; anything larger is a protocol error, not a workload.
inline constexpr std::size_t kMaxFramePayload = std::size_t{64} << 20;

enum class FrameType : std::uint8_t {
  Submit = 1,        ///< client -> server: JobRequest payload
  Result = 2,        ///< server -> client: JobResultMsg payload
  Error = 3,         ///< either direction: human-readable message
  StatsRequest = 4,  ///< client -> server: empty payload
  StatsReply = 5,    ///< server -> client: RunReport wire text
  Shutdown = 6,      ///< client -> server: empty payload
  ShutdownAck = 7,   ///< server -> client: empty payload
  // 8 and 9 are retired; see the file comment.
  WorkerHello = 10,    ///< worker -> server: WorkerHelloMsg payload
  WorkerWelcome = 11,  ///< server -> worker: empty payload (attach accepted)
  ShardAssign = 12,    ///< server -> worker: ShardAssignMsg payload
  ShardDone = 13,      ///< worker -> server: ShardDoneMsg payload
  Heartbeat = 14,      ///< either direction: empty payload (idle liveness)
};

struct Frame {
  FrameType type = FrameType::Error;
  std::string payload;
};

/// Size of the fixed frame header.
inline constexpr std::size_t kFrameHeaderBytes = 8;

/// Renders a frame (header + payload).  Throws std::invalid_argument when
/// the payload exceeds kMaxFramePayload.
std::string encodeFrame(const Frame& frame);

/// Incremental decoder over a byte buffer: returns std::nullopt when
/// `bytes` holds only a (valid-so-far) truncated prefix starting at
/// `offset`; on success returns the frame and advances `offset` past it.
/// Throws std::invalid_argument on malformed bytes (bad magic/version/
/// type, oversize length) without allocating the payload.
std::optional<Frame> decodeFrame(std::string_view bytes, std::size_t& offset);

/// Blocking frame read from a socket/pipe fd.  Returns false on clean EOF
/// at a frame boundary (the peer is done).  Throws std::invalid_argument
/// on malformed bytes and std::runtime_error on truncation or read errors.
/// `timeoutMs` >= 0 bounds the WHOLE frame (header + payload) with one
/// deadline; a stalled peer raises net::TimeoutError.
bool readFrame(int fd, Frame& out, int timeoutMs = -1);

/// Blocking frame write.  Throws on encode or I/O failure (EPIPE when the
/// peer died — callers treat that as peer death, not a crash).
/// `timeoutMs` >= 0 bounds the write; net::TimeoutError on deadline.
void writeFrame(int fd, const Frame& frame, int timeoutMs = -1);

// --------------------------------------------------------------- payloads

/// A client's job: evaluate the whole-grid `spec`, split `shards` ways.
/// `useCache` false bypasses the result-cache LOOKUP (the run still warms
/// the cache) — the fault-injection smokes use it to force recomputation.
struct JobRequest {
  exp::ShardSpec spec;
  std::size_t shards = 1;
  bool useCache = true;
};

std::string encodeJobRequest(const JobRequest& req);
/// Strict inverse; throws std::invalid_argument on malformed payloads
/// (including a malformed embedded ShardSpec).
JobRequest parseJobRequest(const std::string& payload);

/// The server's answer: the merged accumulator bytes — byte-for-byte what
/// single-process reduceCells would serialize — plus provenance.
struct JobResultMsg {
  bool cacheHit = false;
  std::string fingerprint;  ///< content address of the job (hex)
  std::string accumulatorText;
};

std::string encodeJobResultMsg(const JobResultMsg& msg);
JobResultMsg parseJobResultMsg(const std::string& payload);

/// A worker dialing in: the code-version salt it was built with (must
/// equal grid/fingerprint.h's kCodeVersionSalt or the handshake is
/// rejected) and how many shards it will run concurrently (>= 1).
struct WorkerHelloMsg {
  std::string salt;
  std::size_t concurrency = 1;
};

std::string encodeWorkerHelloMsg(const WorkerHelloMsg& msg);
WorkerHelloMsg parseWorkerHelloMsg(const std::string& payload);

/// A shard leased to an attached worker.  The id is the server's lease
/// token; the matching ShardDone must echo it, which is what lets a
/// multi-shard worker complete out of order without ambiguity.
struct ShardAssignMsg {
  std::uint64_t id = 0;
  exp::ShardSpec spec;
};

std::string encodeShardAssignMsg(const ShardAssignMsg& msg);
ShardAssignMsg parseShardAssignMsg(const std::string& payload);

/// A worker's answer to one ShardAssign: on ok the shard's accumulator +
/// the RunReport telemetry the scheduler's cost model consumes, otherwise
/// the failure text — either way the lease id rides along, so an evaluation
/// failure still frees the right lease.
struct ShardDoneMsg {
  std::uint64_t id = 0;
  bool ok = false;
  std::string accumulatorText;  ///< ok only
  std::string reportText;       ///< ok only
  std::string errorText;        ///< !ok only
};

std::string encodeShardDoneMsg(const ShardDoneMsg& msg);
ShardDoneMsg parseShardDoneMsg(const std::string& payload);

}  // namespace pred::grid
