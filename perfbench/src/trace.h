#pragma once
// trace.h — In-memory spans recorded around the benchmark's calls into each
// library layer, and the self-time arithmetic over them.
//
// A span has a name (the layer metric it feeds), start and end on the
// steady clock, the index of the span that caused it (-1 for a root), and
// the id of the op it belongs to.  Spans stay in memory while the run
// measures and are written out once at the end.  A span's self time is
// its duration minus the part of its interval that its children cover;
// the self time of an op's root span is the wall time no layer accounts
// for (reported as unattributed).

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock.
std::uint64_t nowNs();

/// Milliseconds between two nowNs() readings.
inline double msBetween(std::uint64_t startNs, std::uint64_t endNs) {
  return static_cast<double>(endNs - startNs) / 1e6;
}

struct Span {
  std::string name;
  std::uint64_t startNs = 0;
  std::uint64_t endNs = 0;
  int parent = -1;  ///< index into the same log; -1 = root
  std::uint64_t op = 0;
};

class SpanLog {
 public:
  /// Opens a span now; returns its index for end() and as a parent.
  int begin(std::string name, std::uint64_t op, int parent = -1);
  void end(int index);
  /// Records an already-measured interval.
  int add(Span span);

  const std::vector<Span>& spans() const { return spans_; }
  /// Every span's self time, parallel to spans().
  std::vector<std::uint64_t> selfTimes() const;
  /// Per op, per span name: summed self time in ns.
  std::map<std::uint64_t, std::map<std::string, std::uint64_t>> selfByOp()
      const;
  /// One JSON object per line: name, start, end, parent, op, self.
  std::string jsonl() const;

 private:
  std::vector<Span> spans_;
};

/// Scoped span: begin() on construction, end() on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, std::uint64_t op, int parent = -1)
      : log_(log), index_(log.begin(std::move(name), op, parent)) {}
  ~ScopedSpan() { log_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int index() const { return index_; }

 private:
  SpanLog& log_;
  int index_;
};

/// Self time of each span in `spans`: duration minus the union of its
/// children's intervals clipped to its own.  Exposed for the self-test.
std::vector<std::uint64_t> selfTimes(const std::vector<Span>& spans);

}  // namespace perfbench
