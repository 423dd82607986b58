#include "trace.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "stats.h"

namespace perfbench {

std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

int SpanLog::begin(std::string name, std::uint64_t op, int parent) {
  const std::uint64_t t = nowNs();
  return add(Span{std::move(name), t, t, parent, op});
}

void SpanLog::end(int index) {
  spans_.at(static_cast<std::size_t>(index)).endNs = nowNs();
}

int SpanLog::add(Span span) {
  if (span.parent >= static_cast<int>(spans_.size())) {
    throw std::invalid_argument("span parent must be recorded first");
  }
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<std::uint64_t> selfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans.size());
  for (const auto& s : spans) {
    if (s.parent < 0) continue;
    const auto& p = spans.at(static_cast<std::size_t>(s.parent));
    const std::uint64_t a = std::max(s.startNs, p.startNs);
    const std::uint64_t b = std::min(s.endNs, p.endNs);
    if (a < b) children[static_cast<std::size_t>(s.parent)].push_back({a, b});
  }
  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t k = 0; k < spans.size(); ++k) {
    const std::uint64_t dur =
        spans[k].endNs > spans[k].startNs ? spans[k].endNs - spans[k].startNs
                                          : 0;
    auto& iv = children[k];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t curA = 0, curB = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= curB) {
        curB = std::max(curB, b);
        continue;
      }
      if (open) covered += curB - curA;
      curA = a;
      curB = b;
      open = true;
    }
    if (open) covered += curB - curA;
    self[k] = dur - std::min(dur, covered);
  }
  return self;
}

std::vector<std::uint64_t> SpanLog::selfTimes() const {
  return perfbench::selfTimes(spans_);
}

std::map<std::uint64_t, std::map<std::string, std::uint64_t>>
SpanLog::selfByOp() const {
  const auto self = selfTimes();
  std::map<std::uint64_t, std::map<std::string, std::uint64_t>> out;
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    out[spans_[k].op][spans_[k].name] += self[k];
  }
  return out;
}

std::string SpanLog::jsonl() const {
  const auto self = selfTimes();
  std::string out;
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    const auto& s = spans_[k];
    out += "{\"name\": " + jsonString(s.name) +
           ", \"start_ns\": " + std::to_string(s.startNs) +
           ", \"end_ns\": " + std::to_string(s.endNs) +
           ", \"parent\": " + std::to_string(s.parent) +
           ", \"op\": " + std::to_string(s.op) +
           ", \"self_ns\": " + std::to_string(self[k]) + "}\n";
  }
  return out;
}

}  // namespace perfbench
