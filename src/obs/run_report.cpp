#include "obs/run_report.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "core/report.h"
#include "core/wire.h"

namespace pred::obs {

namespace {

constexpr const char* kWireContext = "RunReport";

[[noreturn]] void badReport(const std::string& what) {
  core::wire::fail(kWireContext, what);
}

std::string nextToken(std::istream& in, const std::string& expecting) {
  return core::wire::nextToken(in, kWireContext, expecting);
}

template <typename T>
T number(std::istream& in, const std::string& field) {
  return core::wire::nextNumber<T>(in, kWireContext, field);
}

/// The wire format is whitespace-separated; labels must be single tokens.
void checkToken(const std::string& s, const char* field) {
  if (s.empty()) badReport(std::string("empty ") + field);
  for (const char c : s) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      badReport(std::string(field) + " '" + s +
                "' contains whitespace and cannot be serialized");
    }
  }
}

std::uint64_t saturatingSub(std::uint64_t a, std::uint64_t b) {
  return a > b ? a - b : 0;
}

std::string nsToMs(std::uint64_t ns) {
  return core::fmt(static_cast<double>(ns) / 1e6, 3) + " ms";
}

std::string percent(std::uint64_t part, std::uint64_t whole) {
  if (whole == 0) return "-";
  return core::fmt(100.0 * static_cast<double>(part) /
                       static_cast<double>(whole),
                   1) +
         "%";
}

}  // namespace

double ShardStat::hitRate() const {
  const std::uint64_t total = traceHits + traceMisses;
  return total == 0 ? 0.0
                    : static_cast<double>(traceHits) /
                          static_cast<double>(total);
}

std::uint64_t RunReport::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

RunReport RunReport::deltaSince(const RunReport& before) const {
  RunReport d = *this;
  for (auto& [name, value] : d.counters) {
    value = saturatingSub(value, before.counter(name));
  }
  for (auto it = d.phases.begin(); it != d.phases.end();) {
    const auto bit = before.phases.find(it->first);
    if (bit != before.phases.end()) {
      it->second.count = saturatingSub(it->second.count, bit->second.count);
      it->second.totalNs =
          saturatingSub(it->second.totalNs, bit->second.totalNs);
    }
    // The lifetime max may predate the window; no span in it exceeds the
    // window's total.
    it->second.maxNs = std::min(it->second.maxNs, it->second.totalNs);
    it = it->second.count == 0 ? d.phases.erase(it) : std::next(it);
  }
  for (std::size_t w = 0; w < d.workers.size(); ++w) {
    if (w >= before.workers.size()) break;
    d.workers[w].busyNs =
        saturatingSub(d.workers[w].busyNs, before.workers[w].busyNs);
    d.workers[w].items =
        saturatingSub(d.workers[w].items, before.workers[w].items);
    d.workers[w].participations = saturatingSub(
        d.workers[w].participations, before.workers[w].participations);
  }
  return d;
}

RunReport RunReport::normalized() const {
  RunReport n = *this;
  n.wallNs = 0;
  for (auto& [name, p] : n.phases) {
    p.totalNs = 0;
    p.maxNs = 0;
  }
  for (auto& w : n.workers) w = WorkerStat{};
  for (auto& s : n.shards) s.wallNs = 0;
  return n;
}

std::string RunReport::serialize() const {
  checkToken(platform, "platform");
  checkToken(workload, "workload");
  std::ostringstream os;
  os << "pred-report v1\n";
  os << "platform " << platform << "\n";
  os << "workload " << workload << "\n";
  os << "wall-ns " << wallNs << "\n";
  os << "counters " << counters.size() << "\n";
  for (const auto& [name, value] : counters) {
    checkToken(name, "counter name");
    os << name << " " << value << "\n";
  }
  os << "phases " << phases.size() << "\n";
  for (const auto& [name, p] : phases) {
    checkToken(name, "phase name");
    os << name << " " << p.count << " " << p.totalNs << " " << p.maxNs
       << "\n";
  }
  os << "workers " << workers.size() << "\n";
  for (const auto& w : workers) {
    os << w.busyNs << " " << w.items << " " << w.participations << "\n";
  }
  os << "shards " << shards.size() << "\n";
  for (const auto& s : shards) {
    checkToken(s.label, "shard label");
    os << s.label << " " << s.wallNs << " " << s.cells << " " << s.traceHits
       << " " << s.traceMisses << "\n";
  }
  os << "end\n";
  return os.str();
}

RunReport RunReport::deserialize(const std::string& text) {
  std::istringstream in(text);
  if (nextToken(in, "'pred-report' header") != "pred-report" ||
      nextToken(in, "version") != "v1") {
    badReport("missing 'pred-report v1' header");
  }
  RunReport r;
  if (nextToken(in, "'platform'") != "platform") badReport("expected "
                                                           "'platform'");
  r.platform = nextToken(in, "platform name");
  if (nextToken(in, "'workload'") != "workload") badReport("expected "
                                                           "'workload'");
  r.workload = nextToken(in, "workload name");
  if (nextToken(in, "'wall-ns'") != "wall-ns") badReport("expected "
                                                         "'wall-ns'");
  r.wallNs = number<std::uint64_t>(in, "wall-ns");

  if (nextToken(in, "'counters'") != "counters") badReport("expected "
                                                           "'counters'");
  const auto nCounters = number<std::uint64_t>(in, "counter count");
  for (std::uint64_t k = 0; k < nCounters; ++k) {
    const std::string name = nextToken(in, "counter name");
    const auto value = number<std::uint64_t>(in, "counter value");
    if (!r.counters.emplace(name, value).second) {
      badReport("duplicate counter '" + name + "'");
    }
  }

  if (nextToken(in, "'phases'") != "phases") badReport("expected 'phases'");
  const auto nPhases = number<std::uint64_t>(in, "phase count");
  for (std::uint64_t k = 0; k < nPhases; ++k) {
    const std::string name = nextToken(in, "phase name");
    PhaseStat p;
    p.count = number<std::uint64_t>(in, "phase span count");
    p.totalNs = number<std::uint64_t>(in, "phase total ns");
    p.maxNs = number<std::uint64_t>(in, "phase max ns");
    if (!r.phases.emplace(name, p).second) {
      badReport("duplicate phase '" + name + "'");
    }
  }

  if (nextToken(in, "'workers'") != "workers") badReport("expected "
                                                         "'workers'");
  const auto nWorkers = number<std::uint64_t>(in, "worker count");
  r.workers.reserve(nWorkers);
  for (std::uint64_t k = 0; k < nWorkers; ++k) {
    WorkerStat w;
    w.busyNs = number<std::uint64_t>(in, "worker busy ns");
    w.items = number<std::uint64_t>(in, "worker items");
    w.participations = number<std::uint64_t>(in, "worker participations");
    r.workers.push_back(w);
  }

  if (nextToken(in, "'shards'") != "shards") badReport("expected 'shards'");
  const auto nShards = number<std::uint64_t>(in, "shard count");
  r.shards.reserve(nShards);
  for (std::uint64_t k = 0; k < nShards; ++k) {
    ShardStat s;
    s.label = nextToken(in, "shard label");
    s.wallNs = number<std::uint64_t>(in, "shard wall ns");
    s.cells = number<std::uint64_t>(in, "shard cells");
    s.traceHits = number<std::uint64_t>(in, "shard trace hits");
    s.traceMisses = number<std::uint64_t>(in, "shard trace misses");
    r.shards.push_back(std::move(s));
  }

  if (nextToken(in, "'end'") != "end") badReport("expected 'end'");
  std::string trailing;
  if (in >> trailing) badReport("trailing content after 'end'");
  return r;
}

std::string RunReport::json() const {
  std::ostringstream os;
  os << "{\"platform\": " << core::jsonString(platform)
     << ", \"workload\": " << core::jsonString(workload)
     << ", \"wall_ns\": " << wallNs;
  os << ", \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    os << (first ? "" : ", ") << core::jsonString(name) << ": " << value;
    first = false;
  }
  os << "}, \"phases\": {";
  first = true;
  for (const auto& [name, p] : phases) {
    os << (first ? "" : ", ") << core::jsonString(name)
       << ": {\"count\": " << p.count << ", \"total_ns\": " << p.totalNs
       << ", \"max_ns\": " << p.maxNs << "}";
    first = false;
  }
  os << "}, \"workers\": [";
  for (std::size_t w = 0; w < workers.size(); ++w) {
    os << (w ? ", " : "") << "{\"busy_ns\": " << workers[w].busyNs
       << ", \"items\": " << workers[w].items
       << ", \"participations\": " << workers[w].participations << "}";
  }
  os << "], \"shards\": [";
  for (std::size_t k = 0; k < shards.size(); ++k) {
    const auto& s = shards[k];
    os << (k ? ", " : "") << "{\"label\": " << core::jsonString(s.label)
       << ", \"wall_ns\": " << s.wallNs << ", \"cells\": " << s.cells
       << ", \"trace_hits\": " << s.traceHits
       << ", \"trace_misses\": " << s.traceMisses
       << ", \"hit_rate\": " << core::fmt(s.hitRate(), 6) << "}";
  }
  os << "]}";
  return os.str();
}

std::string RunReport::text() const {
  std::ostringstream os;
  os << "run report: " << workload << " on " << platform
     << ", wall " << nsToMs(wallNs) << "\n";

  if (!counters.empty()) {
    core::TextTable t({"counter", "value"});
    for (const auto& [name, value] : counters) {
      t.addRow({name, std::to_string(value)});
    }
    os << t.render();
  }

  if (!phases.empty()) {
    std::uint64_t phaseTotal = 0;
    for (const auto& [name, p] : phases) phaseTotal += p.totalNs;
    core::TextTable t({"phase", "spans", "total", "max", "share"});
    for (const auto& [name, p] : phases) {
      t.addRow({name, std::to_string(p.count), nsToMs(p.totalNs),
                nsToMs(p.maxNs), percent(p.totalNs, phaseTotal)});
    }
    os << t.render();
  }

  if (!workers.empty()) {
    core::TextTable t({"worker", "busy", "items", "participations",
                       "utilization"});
    for (std::size_t w = 0; w < workers.size(); ++w) {
      t.addRow({std::to_string(w), nsToMs(workers[w].busyNs),
                std::to_string(workers[w].items),
                std::to_string(workers[w].participations),
                percent(workers[w].busyNs, wallNs)});
    }
    os << t.render();
  }

  if (!shards.empty()) {
    std::uint64_t slowest = 0, fastest = 0;
    std::size_t slowestIdx = 0;
    for (std::size_t k = 0; k < shards.size(); ++k) {
      if (k == 0 || shards[k].wallNs > slowest) {
        slowest = shards[k].wallNs;
        slowestIdx = k;
      }
      if (k == 0 || shards[k].wallNs < fastest) fastest = shards[k].wallNs;
    }
    core::TextTable t({"shard", "wall", "cells", "trace hit rate"});
    for (const auto& s : shards) {
      t.addRow({s.label, nsToMs(s.wallNs), std::to_string(s.cells),
                core::fmt(s.hitRate(), 4)});
    }
    os << t.render();
    os << "fleet: " << shards.size() << " shard(s), slowest "
       << shards[slowestIdx].label << " at " << nsToMs(slowest)
       << ", wall skew "
       << (fastest == 0 ? std::string("inf")
                        : core::fmt(static_cast<double>(slowest) /
                                        static_cast<double>(fastest),
                                    2) +
                              "x")
       << "\n";
  }
  return os.str();
}

RunReport snapshotReport(const MetricsRegistry& metrics,
                         const WorkerUtil& workers) {
  RunReport r;
  r.counters = metrics.counterValues();
  for (const auto& [name, p] : metrics.phaseValues()) {
    r.phases[name] = PhaseStat{p.count, p.totalNs, p.maxNs};
  }
  r.workers.resize(workers.workers());
  for (std::size_t w = 0; w < workers.workers(); ++w) {
    r.workers[w] = WorkerStat{workers.busyNs(w), workers.items(w),
                              workers.participations(w)};
  }
  return r;
}

RunReport mergeFleet(const std::vector<RunReport>& parts) {
  if (parts.empty()) {
    throw std::invalid_argument("mergeFleet: no reports given");
  }
  RunReport fleet;
  fleet.platform = parts.front().platform;
  fleet.workload = parts.front().workload;
  for (const auto& part : parts) {
    if (part.platform != fleet.platform) fleet.platform = "-";
    if (part.workload != fleet.workload) fleet.workload = "-";
    // The fleet's wall time is its critical path: the slowest shard.
    fleet.wallNs = std::max(fleet.wallNs, part.wallNs);
    for (const auto& [name, value] : part.counters) {
      fleet.counters[name] += value;
    }
    for (const auto& [name, p] : part.phases) {
      PhaseStat& f = fleet.phases[name];
      f.count += p.count;
      f.totalNs += p.totalNs;
      f.maxNs = std::max(f.maxNs, p.maxNs);
    }
    // Every process's worker slots stay slots of their own: a slot is busy
    // within its process's wall, which the critical path bounds, so no
    // fleet slot can read over 100%.  (Summing slot w across processes
    // read 454% on a 64% busy fleet.)
    fleet.workers.insert(fleet.workers.end(), part.workers.begin(),
                         part.workers.end());
    // A worker run contributes its self-entry; an already-merged report
    // contributes all of its shards (merge is associative).
    fleet.shards.insert(fleet.shards.end(), part.shards.begin(),
                        part.shards.end());
  }
  return fleet;
}

}  // namespace pred::obs
