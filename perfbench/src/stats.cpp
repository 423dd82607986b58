#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

double percentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) throw std::invalid_argument("percentile of no samples");
  if (!(p > 0 && p <= 100)) throw std::invalid_argument("percentile out of range");
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  return percentileSorted(samples, 50);
}

Tail tailOf(std::vector<double> samples, double maxPercentile) {
  Tail t;
  t.samples = samples.size();
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (p > maxPercentile && p > 50.0) continue;
    const auto rank = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::ceil(p / 100.0 * n - 1e-9)), 1,
        samples.size());
    t.percentile = p;
    t.value = samples[rank - 1];
    t.beyond = samples.size() - rank;
    t.qualified = t.beyond >= Tail::kMinBeyond;
    if (t.qualified) break;
  }
  return t;
}

double ErrorTally::rate() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(failed_) /
                               static_cast<double>(attempted_);
}

namespace {

bool nameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

}  // namespace

bool validName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const char first = name.front();
  if (first == '_' || first == '.' || first == '-') return false;
  return std::all_of(name.begin(), name.end(), nameChar);
}

bool validUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(),
                     [](char c) { return nameChar(c) || c == '/' || c == '%'; });
}

void MetricSet::add(const std::string& name, const std::string& unit,
                    double value) {
  if (!validName(name)) throw std::invalid_argument("bad metric name: " + name);
  if (!validUnit(unit)) throw std::invalid_argument("bad unit: " + unit);
  for (const auto& m : items_) {
    if (m.name == name) throw std::invalid_argument("repeated metric: " + name);
  }
  items_.push_back({name, unit, value});
}

double MetricSet::at(const std::string& name) const {
  for (const auto& m : items_) {
    if (m.name == name) return m.value;
  }
  throw std::out_of_range("no metric " + name);
}

std::string jsonString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string resultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed, const MetricSet& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& m : metrics.items()) {
    if (!std::isfinite(m.value)) {
      throw std::invalid_argument("non-finite metric: " + m.name);
    }
    char num[40];
    std::snprintf(num, sizeof num, "%.17g", m.value);
    if (!first) out += ", ";
    first = false;
    out += jsonString(m.name) + ": {\"value\": " + num +
           ", \"unit\": " + jsonString(m.unit) + "}";
  }
  return out + "}}";
}

}  // namespace perfbench
