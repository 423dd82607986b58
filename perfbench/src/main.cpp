// perfbench — the repository benchmark program.
//
//   perfbench --workload query-cold|sweep-warm|grid-submit --seed N
//             --seconds S --trace 0|1 [--scratch DIR] [--trace-out FILE]
//
// Sets the workload up three times (setup_s is the median), resets the
// process's peak-RSS mark (peak_rss_mb covers the loop only), then runs a
// closed loop with one client for S seconds, verifying every op against
// its reference.  --trace 0 reports the end-to-end metrics.  --trace 1
// follows every untraced op with a traced repeat of it (the untraced ops
// are the base of trace.overhead_pct) and reports the per-layer metrics.
// Human-readable lines come first; the last line of stdout is one JSON
// object.
// The exit code is non-zero when any op failed or returned a result that
// differs from its reference.

#include <malloc.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench.h"
#include "calibrate.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

constexpr int kSetups = 3;

/// Every per-layer metric, in the order BENCHMARK.json lists them.  A layer
/// the workload does not cross reports 0.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"exp.platform.make_ms", "ms"},
    {"exp.trace_store.resolve_ms", "ms"},
    {"isa.functional_run_ms", "ms"},
    {"exp.trace_store.fingerprint_ms", "ms"},
    {"exp.replay.compile_ms", "ms"},
    {"exp.trace_store.lookup_overhead_ms", "ms"},
    {"exp.engine.reduce_ms", "ms"},
    {"exp.engine.reduce_batch_ms", "ms"},
    {"exp.replay.inorder-lru.ns_per_cell", "ns"},
    {"exp.replay.ooo-fifo.ns_per_cell", "ns"},
    {"study.finding_ms", "ms"},
    {"obs.report_ms", "ms"},
    {"core.measures.codec_ms", "ms"},
    {"exp.trace_store.misses", "count"},
    {"exp.trace_store.hits", "count"},
    {"exp.trace_store.classes", "count"},
    {"exp.engine.cells", "count"},
    {"exp.engine.cells_collapsed", "count"},
    {"exp.engine.grid_walks", "count"},
    {"exp.engine.collapse_ratio", "ratio"},
    {"exp.worker_pool.busy_ratio", "ratio"},
    {"grid.client.submit_miss_ms", "ms"},
    {"grid.client.submit_hit_ms", "ms"},
    {"grid.worker.eval_ms", "ms"},
    {"grid.worker.trace_store.hits", "count"},
    {"grid.worker.trace_store.misses", "count"},
    {"grid.worker.trace_store.hit_ratio", "ratio"},
    {"grid.worker.busy_ratio", "ratio"},
    {"grid.fleet.reported_util", "ratio"},
    {"grid.non_eval_ms", "ms"},
    {"grid.cache.hits", "count"},
    {"grid.cache.misses", "count"},
    {"grid.shards.dispatched", "count"},
    {"grid.shards.retried", "count"},
    {"grid.cache.persist_errors", "count"},
    {"grid.bad_frames", "count"},
    {"trace.unattributed_ms", "ms"},
    {"trace.unattributed_share", "ratio"},
    {"trace.overhead_pct", "%"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch = ".bench_build/perfbench/scratch";
  std::string traceOut;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload query-cold|sweep-warm|"
               "grid-submit --seed N --seconds S --trace 0|1 "
               "[--scratch DIR] [--trace-out FILE]\n";
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
        haveWorkload = true;
      } else if (flag == "--seed") {
        std::size_t used = 0;
        a.seed = std::stoull(v, &used);
        if (used != v.size()) throw std::invalid_argument(v);
      } else if (flag == "--seconds") {
        std::size_t used = 0;
        a.seconds = std::stod(v, &used);
        if (used != v.size()) throw std::invalid_argument(v);
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (flag == "--scratch") {
        a.scratch = v;
      } else if (flag == "--trace-out") {
        a.traceOut = v;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (!haveWorkload) usage("--workload is required");
  if (!validName(a.workload)) usage("invalid workload name: " + a.workload);
  if (a.workload != "query-cold" && a.workload != "sweep-warm" &&
      a.workload != "grid-submit") {
    usage("unknown workload: " + a.workload);
  }
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

std::unique_ptr<Workload> makeWorkload(const Args& a) {
  if (a.workload == "query-cold") return makeQueryCold(a.seed);
  if (a.workload == "sweep-warm") return makeSweepWarm(a.seed);
  return makeGridSubmit(a.seed, a.scratch);
}

/// The highest tail rung each workload reports: one its op rate clears
/// with room to spare at the benchmark's run length (BENCHMARK.json), so a
/// modest speed change does not move the reported percentile.  Higher
/// rungs swing with every short burst of machine load: query-cold's p99
/// spread 19 % over ten seeds against 4 % for its p50.  sweep-warm runs
/// ~120 ops in 25 s and p90 needs 100 with 10 beyond, so a 17 % slowdown
/// would drop its tail from p90 to p75 between two runs of the same code.
/// sweep-warm therefore has no end-to-end tail coverage above p75.
double tailCap(const std::string& workload) {
  return workload == "sweep-warm" ? 75.0 : 95.0;
}

/// Returns freed heap to the kernel and resets the process's peak-RSS mark
/// (VmHWM) to its current RSS, so the set-ups' reference engines and pool
/// threads do not count toward peak_rss_mb.
void resetPeakRss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  if (!f) throw std::runtime_error("cannot reset peak RSS via /proc/self/clear_refs");
}

/// Peak RSS since the last resetPeakRss(), from VmHWM in /proc/self/status.
double peakRssMb() {
  std::ifstream f("/proc/self/status");
  for (std::string line; std::getline(f, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // VmHWM is in kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Latencies of one closed loop, split by whether the grid cache answered.
struct LoopResult {
  std::vector<double> latencyMs;
  std::vector<double> hitLatencyMs;
  std::vector<double> calibrationNs;  ///< calibration chunks run between ops
  std::uint64_t verified = 0;
  double elapsedS = 0;  ///< loop wall time minus calibration time
};

/// Runs `body(k)`, counting a throw as a failed op.
template <typename Body>
OpOutcome guarded(std::uint64_t k, const Body& body) {
  try {
    return body(k);
  } catch (const std::exception& e) {
    std::cerr << "op " << k << " threw: " << e.what() << "\n";
    return OpOutcome{};
  }
}

/// Runs `body(k)` back to back until `seconds` pass, timing each; every op
/// counts in `tally`.  When `after` is set it runs untimed after each op
/// (the traced run interleaves its traced op there, so both see the same
/// machine load) and counts in `tally` too.  A calibration chunk runs
/// between ops every kCalibrationPeriodMs; its time is not the loop's.
template <typename Body>
LoopResult closedLoop(
    double seconds, ErrorTally& tally, const Body& body,
    const std::function<OpOutcome(std::uint64_t)>& after = nullptr) {
  LoopResult res;
  const std::uint64_t start = nowNs();
  const auto budget = static_cast<std::uint64_t>(seconds * 1e9);
  const auto period = static_cast<std::uint64_t>(kCalibrationPeriodMs * 1e6);
  std::uint64_t nextCalibration = start;
  std::uint64_t calibrationTotal = 0;
  for (std::uint64_t k = 0; nowNs() - start < budget; ++k) {
    if (nowNs() >= nextCalibration) {
      const std::uint64_t ns = calibrationChunkNs();
      res.calibrationNs.push_back(static_cast<double>(ns));
      calibrationTotal += ns;
      nextCalibration = nowNs() + period;
    }
    const std::uint64_t t0 = nowNs();
    const OpOutcome out = guarded(k, body);
    const double ms = msBetween(t0, nowNs());
    tally.record(out.ok);
    if (out.ok) {
      ++res.verified;
      res.latencyMs.push_back(ms);
      if (out.cacheHit) res.hitLatencyMs.push_back(ms);
    }
    if (after) tally.record(guarded(k, after).ok);
  }
  res.elapsedS =
      static_cast<double>(nowNs() - start - calibrationTotal) / 1e9;
  return res;
}

void addLayerMetrics(const SpanLog& log, LayerSamples samples,
                     double untracedP50, MetricSet& out) {
  const auto& spans = log.spans();
  const auto self = log.selfTimes();
  std::vector<double> opWall;
  for (std::size_t s = 0; s < spans.size(); ++s) {
    if (spans[s].parent != -1 || spans[s].name != "op") continue;
    const double wall = msBetween(spans[s].startNs, spans[s].endNs);
    opWall.push_back(wall);
    samples["trace.unattributed_ms"].push_back(static_cast<double>(self[s]) /
                                               1e6);
    samples["trace.unattributed_share"].push_back(
        wall > 0 ? static_cast<double>(self[s]) / 1e6 / wall : 0.0);
  }
  for (const auto& [op, byName] : log.selfByOp()) {
    for (const auto& [name, ns] : byName) {
      if (name == "op" || name == "attr" || name == "probe") continue;
      samples[name + "_ms"].push_back(static_cast<double>(ns) / 1e6);
    }
  }
  samples["trace.overhead_pct"].push_back(
      untracedP50 > 0 ? (median(opWall) - untracedP50) / untracedP50 * 100.0
                      : 0.0);
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it = samples.find(name);
    out.add(name, unit, it == samples.end() ? 0.0 : median(it->second));
  }
}

int run(const Args& a) {
  std::cout << "perfbench " << a.workload << " seed=" << a.seed
            << " seconds=" << a.seconds << " trace=" << (a.trace ? 1 : 0)
            << "\n";

  // Set-up: several complete set-ups, the last one is measured.
  std::vector<double> setupS;
  std::unique_ptr<Workload> w;
  for (int r = 0; r < kSetups; ++r) {
    w.reset();
    const std::uint64_t t0 = nowNs();
    w = makeWorkload(a);
    setupS.push_back(static_cast<double>(nowNs() - t0) / 1e9);
  }
  std::cout << "setup_s:";
  for (const double s : setupS) std::cout << " " << s;
  std::cout << " (median " << median(setupS) << ")\n";
  resetPeakRss();

  // A traced run interleaves one traced op after every untraced op.
  ErrorTally tally;
  SpanLog log;
  LayerSamples samples;
  std::function<OpOutcome(std::uint64_t)> traced;
  if (a.trace) {
    traced = [&](std::uint64_t k) { return w->tracedOp(k, log, samples); };
  }
  const LoopResult plain = closedLoop(
      a.seconds, tally, [&](std::uint64_t k) { return w->op(k); }, traced);
  const double peakMb = peakRssMb();
  const Tail tail = tailOf(plain.latencyMs, tailCap(a.workload));
  const double p50 = median(plain.latencyMs);
  std::cout << "untraced: " << plain.verified << " verified ops in "
            << plain.elapsedS << " s; latency p50 " << p50 << " ms, tail p"
            << tail.percentile << " " << tail.value << " ms over "
            << tail.samples << " samples (" << tail.beyond << " beyond"
            << (tail.qualified ? "" : "; fewer than 10, tail not qualified")
            << ")\n";
  const double slowdown = slowdownFactor(plain.calibrationNs);
  std::cout << "machine speed: calibration median "
            << median(plain.calibrationNs) << " ns over "
            << plain.calibrationNs.size() << " chunks, slowdown " << slowdown
            << " vs reference; end-to-end times below are divided by it\n";
  if (!plain.hitLatencyMs.empty()) {
    std::cout << "cache hits: " << plain.hitLatencyMs.size()
              << " ops, hit latency p50 " << median(plain.hitLatencyMs)
              << " ms\n";
  }

  MetricSet metrics;
  if (!a.trace) {
    metrics.add("ops_per_s", "1/s",
                static_cast<double>(plain.verified) / plain.elapsedS *
                    slowdown);
    metrics.add("latency_p50_ms", "ms", p50 / slowdown);
    metrics.add("latency_tail_ms", "ms", tail.value / slowdown);
    metrics.add("setup_s", "s", median(setupS) / slowdown);
    metrics.add("peak_rss_mb", "MB", peakMb);
  } else {
    w->finishTrace(samples);
    std::cout << "traced: " << log.spans().size() << " spans\n";
    addLayerMetrics(log, std::move(samples), p50, metrics);
    for (const auto& m : metrics.items()) {
      std::cout << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
    }
    if (a.workload == "grid-submit") {
      std::cout << "worker utilization: measured grid.worker.busy_ratio "
                << metrics.at("grid.worker.busy_ratio")
                << " vs fleet RunReport claim "
                << metrics.at("grid.fleet.reported_util") << " (gap "
                << metrics.at("grid.fleet.reported_util") -
                       metrics.at("grid.worker.busy_ratio")
                << ")\n";
    }
    if (!a.traceOut.empty()) {
      std::ofstream f(a.traceOut);
      f << log.jsonl();
      if (!f) throw std::runtime_error("cannot write " + a.traceOut);
    }
  }

  std::cout << "ops attempted " << tally.attempted() << ", failed "
            << tally.failed() << ", error_rate " << tally.rate() << "\n";
  w.reset();
  const bool correct = tally.failed() == 0 && tally.attempted() > 0;
  std::cout << resultJson(correct, tally.attempted(), tally.failed(), metrics)
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parseArgs(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
