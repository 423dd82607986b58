#include "grid/protocol.h"

#include <sstream>
#include <stdexcept>

#include <chrono>

#include "core/wire.h"
#include "grid/faultpoint.h"
#include "grid/net.h"

namespace pred::grid {

namespace {

constexpr char kMagic0 = 'P';
constexpr char kMagic1 = 'G';

[[noreturn]] void badFrame(const std::string& what) {
  core::wire::fail("grid-frame", what);
}

bool knownType(std::uint8_t t) {
  // 8 and 9 are retired type bytes (protocol.h): never valid on the wire.
  return t >= static_cast<std::uint8_t>(FrameType::Submit) &&
         t <= static_cast<std::uint8_t>(FrameType::Heartbeat) && t != 8 &&
         t != 9;
}

/// Validates a complete 8-byte header; returns {type, payload length}.
std::pair<FrameType, std::size_t> parseHeader(const unsigned char* h) {
  fault::check("proto.decode");
  if (h[0] != static_cast<unsigned char>(kMagic0) ||
      h[1] != static_cast<unsigned char>(kMagic1)) {
    badFrame("bad magic (not a grid frame)");
  }
  if (h[2] != kProtocolVersion) {
    badFrame("unknown protocol version " + std::to_string(h[2]));
  }
  if (!knownType(h[3])) {
    badFrame("unknown frame type " + std::to_string(h[3]));
  }
  const std::size_t len = (std::size_t{h[4]} << 24) |
                          (std::size_t{h[5]} << 16) |
                          (std::size_t{h[6]} << 8) | std::size_t{h[7]};
  if (len > kMaxFramePayload) {
    badFrame("oversize frame payload (" + std::to_string(len) + " > " +
             std::to_string(kMaxFramePayload) + " bytes)");
  }
  return {static_cast<FrameType>(h[3]), len};
}

/// One "key value" line of a payload header; fails with the codec context.
[[noreturn]] void badPayload(const char* codec, const std::string& what) {
  core::wire::fail(codec, what);
}

/// Consumes one full line "key <rest>" and returns <rest>; strict about
/// the key and the presence of the newline.
std::string headerLine(const char* codec, const std::string& text,
                       std::size_t& pos, const std::string& key) {
  const auto nl = text.find('\n', pos);
  if (nl == std::string::npos) {
    badPayload(codec, "unexpected end of payload, expecting '" + key +
                          "' line");
  }
  const std::string line = text.substr(pos, nl - pos);
  pos = nl + 1;
  if (line.rfind(key, 0) != 0 ||
      (line.size() > key.size() && line[key.size()] != ' ')) {
    badPayload(codec, "expected '" + key + "' line, got: '" + line + "'");
  }
  return line.size() > key.size() ? line.substr(key.size() + 1)
                                  : std::string();
}

/// Full-token number with the codec's context.
template <typename T>
T lineNumber(const char* codec, const std::string& token,
             const std::string& field) {
  std::istringstream in(token);
  const T v = core::wire::nextNumber<T>(in, codec, field);
  std::string extra;
  if (in >> extra) badPayload(codec, "malformed " + field + ": '" + token + "'");
  return v;
}

bool lineFlag(const char* codec, const std::string& token,
              const std::string& field) {
  const auto v = lineNumber<int>(codec, token, field);
  if (v != 0 && v != 1) badPayload(codec, field + " must be 0 or 1");
  return v == 1;
}

}  // namespace

std::string encodeFrame(const Frame& frame) {
  if (frame.payload.size() > kMaxFramePayload) {
    badFrame("payload too large to frame (" +
             std::to_string(frame.payload.size()) + " bytes)");
  }
  std::string out;
  out.reserve(kFrameHeaderBytes + frame.payload.size());
  const std::size_t len = frame.payload.size();
  out.push_back(kMagic0);
  out.push_back(kMagic1);
  out.push_back(static_cast<char>(kProtocolVersion));
  out.push_back(static_cast<char>(frame.type));
  out.push_back(static_cast<char>((len >> 24) & 0xff));
  out.push_back(static_cast<char>((len >> 16) & 0xff));
  out.push_back(static_cast<char>((len >> 8) & 0xff));
  out.push_back(static_cast<char>(len & 0xff));
  out += frame.payload;
  return out;
}

std::optional<Frame> decodeFrame(std::string_view bytes, std::size_t& offset) {
  if (offset > bytes.size()) badFrame("decode offset past end of buffer");
  const std::size_t avail = bytes.size() - offset;
  if (avail < kFrameHeaderBytes) {
    // Partial headers are validated byte-for-byte so garbage fails fast
    // even before 8 bytes arrive.
    const unsigned char* p =
        reinterpret_cast<const unsigned char*>(bytes.data()) + offset;
    if (avail >= 1 && p[0] != static_cast<unsigned char>(kMagic0)) {
      badFrame("bad magic (not a grid frame)");
    }
    if (avail >= 2 && p[1] != static_cast<unsigned char>(kMagic1)) {
      badFrame("bad magic (not a grid frame)");
    }
    if (avail >= 3 && p[2] != kProtocolVersion) {
      badFrame("unknown protocol version " + std::to_string(p[2]));
    }
    if (avail >= 4 && !knownType(p[3])) {
      badFrame("unknown frame type " + std::to_string(p[3]));
    }
    return std::nullopt;  // truncated-but-valid prefix: need more bytes
  }
  const unsigned char* h =
      reinterpret_cast<const unsigned char*>(bytes.data()) + offset;
  const auto [type, len] = parseHeader(h);
  if (avail < kFrameHeaderBytes + len) return std::nullopt;
  Frame f;
  f.type = type;
  f.payload.assign(bytes.data() + offset + kFrameHeaderBytes, len);
  offset += kFrameHeaderBytes + len;
  return f;
}

namespace {

/// Milliseconds left until `deadline`, clamped to >= 0 — a frame gets ONE
/// deadline across header and payload, so a peer cannot reset the clock
/// by dribbling the header out slowly.
int remainingTimeout(std::chrono::steady_clock::time_point deadline) {
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      deadline - std::chrono::steady_clock::now())
                      .count();
  return ms < 0 ? 0 : (ms > 3'600'000 ? 3'600'000 : static_cast<int>(ms));
}

}  // namespace

bool readFrame(int fd, Frame& out, int timeoutMs) {
  const bool bounded = timeoutMs >= 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(bounded ? timeoutMs : 0);
  unsigned char header[kFrameHeaderBytes];
  if (!net::readExact(fd, header, sizeof(header),
                      bounded ? timeoutMs : net::kNoDeadline)) {
    return false;
  }
  const auto [type, len] = parseHeader(header);
  out.type = type;
  out.payload.resize(len);
  if (len > 0 &&
      !net::readExact(fd, out.payload.data(), len,
                      bounded ? remainingTimeout(deadline)
                              : net::kNoDeadline)) {
    throw std::runtime_error("connection closed between frame header and "
                             "payload");
  }
  return true;
}

void writeFrame(int fd, const Frame& frame, int timeoutMs) {
  const std::string bytes = encodeFrame(frame);
  net::writeAll(fd, bytes.data(), bytes.size(), timeoutMs);
}

// --------------------------------------------------------------- payloads

namespace {
constexpr const char* kJobCodec = "grid-job";
constexpr const char* kResultCodec = "grid-result";
constexpr const char* kHelloCodec = "grid-worker-hello";
constexpr const char* kAssignCodec = "grid-shard-assign";
constexpr const char* kDoneCodec = "grid-shard-done";
}  // namespace

std::string encodeJobRequest(const JobRequest& req) {
  std::ostringstream os;
  os << "pred-grid-job v1\n";
  os << "shards " << req.shards << "\n";
  os << "cache " << (req.useCache ? 1 : 0) << "\n";
  os << exp::serializeShardSpec(req.spec);
  return os.str();
}

JobRequest parseJobRequest(const std::string& payload) {
  std::size_t pos = 0;
  if (!headerLine(kJobCodec, payload, pos, "pred-grid-job v1").empty()) {
    badPayload(kJobCodec, "malformed header line");
  }
  JobRequest req;
  req.shards = lineNumber<std::size_t>(
      kJobCodec, headerLine(kJobCodec, payload, pos, "shards"), "shards");
  if (req.shards == 0) badPayload(kJobCodec, "shards must be positive");
  req.useCache = lineFlag(
      kJobCodec, headerLine(kJobCodec, payload, pos, "cache"), "cache");
  // The remainder is one complete ShardSpec; its parser rejects trailing
  // content, so nothing can hide after it.
  req.spec = exp::parseShardSpec(payload.substr(pos));
  return req;
}

std::string encodeJobResultMsg(const JobResultMsg& msg) {
  for (const char c : msg.fingerprint) {
    if (c == ' ' || c == '\n' || c == '\t' || c == '\r') {
      badPayload(kResultCodec, "fingerprint contains whitespace");
    }
  }
  if (msg.fingerprint.empty()) {
    badPayload(kResultCodec, "empty fingerprint");
  }
  std::ostringstream os;
  os << "pred-grid-result v1\n";
  os << "hit " << (msg.cacheHit ? 1 : 0) << "\n";
  os << "fingerprint " << msg.fingerprint << "\n";
  os << msg.accumulatorText;
  return os.str();
}

JobResultMsg parseJobResultMsg(const std::string& payload) {
  std::size_t pos = 0;
  if (!headerLine(kResultCodec, payload, pos, "pred-grid-result v1")
           .empty()) {
    badPayload(kResultCodec, "malformed header line");
  }
  JobResultMsg msg;
  msg.cacheHit = lineFlag(
      kResultCodec, headerLine(kResultCodec, payload, pos, "hit"), "hit");
  msg.fingerprint = headerLine(kResultCodec, payload, pos, "fingerprint");
  if (msg.fingerprint.empty()) {
    badPayload(kResultCodec, "empty fingerprint");
  }
  msg.accumulatorText = payload.substr(pos);
  return msg;
}

std::string encodeWorkerHelloMsg(const WorkerHelloMsg& msg) {
  if (msg.salt.empty()) badPayload(kHelloCodec, "empty salt");
  for (const char c : msg.salt) {
    if (c == ' ' || c == '\n' || c == '\t' || c == '\r') {
      badPayload(kHelloCodec, "salt contains whitespace");
    }
  }
  if (msg.concurrency == 0) {
    badPayload(kHelloCodec, "concurrency must be positive");
  }
  std::ostringstream os;
  os << "pred-grid-hello v1\n";
  os << "salt " << msg.salt << "\n";
  os << "concurrency " << msg.concurrency << "\n";
  return os.str();
}

WorkerHelloMsg parseWorkerHelloMsg(const std::string& payload) {
  std::size_t pos = 0;
  if (!headerLine(kHelloCodec, payload, pos, "pred-grid-hello v1").empty()) {
    badPayload(kHelloCodec, "malformed header line");
  }
  WorkerHelloMsg msg;
  msg.salt = headerLine(kHelloCodec, payload, pos, "salt");
  if (msg.salt.empty()) badPayload(kHelloCodec, "empty salt");
  for (const char c : msg.salt) {
    if (c == ' ' || c == '\t' || c == '\r') {
      badPayload(kHelloCodec, "salt contains whitespace");
    }
  }
  msg.concurrency = lineNumber<std::size_t>(
      kHelloCodec, headerLine(kHelloCodec, payload, pos, "concurrency"),
      "concurrency");
  if (msg.concurrency == 0) {
    badPayload(kHelloCodec, "concurrency must be positive");
  }
  if (pos != payload.size()) {
    badPayload(kHelloCodec, "trailing bytes after hello");
  }
  return msg;
}

std::string encodeShardAssignMsg(const ShardAssignMsg& msg) {
  std::ostringstream os;
  os << "pred-grid-assign v1\n";
  os << "id " << msg.id << "\n";
  os << exp::serializeShardSpec(msg.spec);
  return os.str();
}

ShardAssignMsg parseShardAssignMsg(const std::string& payload) {
  std::size_t pos = 0;
  if (!headerLine(kAssignCodec, payload, pos, "pred-grid-assign v1")
           .empty()) {
    badPayload(kAssignCodec, "malformed header line");
  }
  ShardAssignMsg msg;
  msg.id = lineNumber<std::uint64_t>(
      kAssignCodec, headerLine(kAssignCodec, payload, pos, "id"), "id");
  // The remainder is one complete ShardSpec; its parser rejects trailing
  // content.
  msg.spec = exp::parseShardSpec(payload.substr(pos));
  return msg;
}

std::string encodeShardDoneMsg(const ShardDoneMsg& msg) {
  std::ostringstream os;
  os << "pred-grid-done v1\n";
  os << "id " << msg.id << "\n";
  os << "ok " << (msg.ok ? 1 : 0) << "\n";
  if (msg.ok) {
    os << "report " << msg.reportText.size() << "\n";
    os << msg.reportText << msg.accumulatorText;
  } else {
    os << msg.errorText;
  }
  return os.str();
}

ShardDoneMsg parseShardDoneMsg(const std::string& payload) {
  std::size_t pos = 0;
  if (!headerLine(kDoneCodec, payload, pos, "pred-grid-done v1").empty()) {
    badPayload(kDoneCodec, "malformed header line");
  }
  ShardDoneMsg msg;
  msg.id = lineNumber<std::uint64_t>(
      kDoneCodec, headerLine(kDoneCodec, payload, pos, "id"), "id");
  msg.ok =
      lineFlag(kDoneCodec, headerLine(kDoneCodec, payload, pos, "ok"), "ok");
  if (!msg.ok) {
    msg.errorText = payload.substr(pos);
    return msg;
  }
  const auto reportBytes = lineNumber<std::size_t>(
      kDoneCodec, headerLine(kDoneCodec, payload, pos, "report"), "report");
  if (payload.size() - pos < reportBytes) {
    badPayload(kDoneCodec, "report length past end of payload");
  }
  msg.reportText = payload.substr(pos, reportBytes);
  msg.accumulatorText = payload.substr(pos + reportBytes);
  return msg;
}

}  // namespace pred::grid
