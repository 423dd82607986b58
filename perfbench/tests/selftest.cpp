// Self-test of the benchmark's own arithmetic: the tail-percentile rule,
// self time from nested spans, error counting against a reference (with a
// deliberately corrupted result), and name validation.  Exits non-zero on
// the first failed check.
//
//   ctest --test-dir .bench_build/perfbench    (after python3 perfbench/run.py)

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "calibrate.h"
#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

template <typename F>
bool throwsInvalid(const F& f) {
  try {
    f();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

std::vector<double> oneTo(int n) {
  std::vector<double> v;
  for (int k = n; k >= 1; --k) v.push_back(k);  // unsorted on purpose
  return v;
}

void tailPercentiles() {
  using perfbench::tailOf;
  // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
  auto t = tailOf(oneTo(1000));
  CHECK(t.qualified);
  CHECK(t.percentile == 99.0);
  CHECK(t.value == 990.0);
  CHECK(t.beyond == 10);
  CHECK(t.samples == 1000);

  // 999 samples: p99 leaves 9, so the tail falls to p95.
  t = tailOf(oneTo(999));
  CHECK(t.percentile == 95.0);
  CHECK(t.beyond >= perfbench::Tail::kMinBeyond);

  // 100 samples: p90 is the highest rung with 10 beyond.
  t = tailOf(oneTo(100));
  CHECK(t.percentile == 90.0);
  CHECK(t.value == 90.0);
  CHECK(t.beyond == 10);

  // 20 samples: only the median leaves 10 beyond.
  t = tailOf(oneTo(20));
  CHECK(t.qualified);
  CHECK(t.percentile == 50.0);
  CHECK(t.value == 10.0);

  // A cap keeps the rung fixed even when more samples would allow a
  // higher one.
  t = tailOf(oneTo(5000), 95.0);
  CHECK(t.percentile == 95.0);
  CHECK(t.value == 4750.0);
  t = tailOf(oneTo(150), 95.0);
  CHECK(t.percentile == 90.0);

  // 19 samples: no rung qualifies; the median is reported, flagged.
  t = tailOf(oneTo(19));
  CHECK(!t.qualified);
  CHECK(t.percentile == 50.0);

  // Calibration: the slowdown is the median chunk over the reference.
  CHECK(perfbench::slowdownFactor({}) == 1.0);
  CHECK(perfbench::slowdownFactor({2 * perfbench::kReferenceNs,
                                   perfbench::kReferenceNs,
                                   3 * perfbench::kReferenceNs}) == 2.0);

  CHECK(perfbench::median({3, 1, 2}) == 2.0);
  CHECK(perfbench::median({}) == 0.0);
  CHECK(perfbench::percentileSorted({1, 2, 3, 4}, 50) == 2.0);
  CHECK(perfbench::percentileSorted({1, 2, 3, 4}, 100) == 4.0);
}

void selfTimes() {
  using perfbench::Span;
  // op [0,100] with two overlapping children [10,30] and [20,50], one
  // grandchild [12,18] inside the first, and a child that runs past the
  // op's end ([90,120], clipped to [90,100]).
  std::vector<Span> spans = {
      {"op", 0, 100, -1, 7},       {"a", 10, 30, 0, 7},
      {"b", 20, 50, 0, 7},         {"a.inner", 12, 18, 1, 7},
      {"late", 90, 120, 0, 7},     {"other-root", 200, 260, -1, 8},
  };
  const auto self = perfbench::selfTimes(spans);
  CHECK(self[0] == 100 - 40 - 10);  // union [10,50] plus [90,100]
  CHECK(self[1] == 20 - 6);
  CHECK(self[2] == 30);
  CHECK(self[3] == 6);
  CHECK(self[4] == 30);
  CHECK(self[5] == 60);

  perfbench::SpanLog log;
  log.add(spans[0]);
  log.add(spans[1]);
  log.add(spans[2]);
  const auto byOp = log.selfByOp();
  CHECK(byOp.at(7).at("op") == 60);
  CHECK(byOp.at(7).at("a") == 20);
  CHECK(throwsInvalid([&] { log.add({"orphan", 0, 1, 99, 7}); }));
}

void errorCounting() {
  // A reference built from the definitions' own witnesses; a Finding that
  // reproduces it passes, one with a corrupted witness or value fails.
  perfbench::Reference ref;
  ref.bcet = 10;
  ref.wcet = 40;
  ref.pr = {0.25, 10, 40, 0, 1, 2, 3};
  ref.sipr = {0.5, 20, 40, 1, 3, 2, 3};
  ref.iipr = {0.5, 10, 20, 0, 1, 0, 3};

  pred::study::Finding good;
  good.bcet = 10;
  good.wcet = 40;
  good.requested = {pred::study::Measure::Pr, pred::study::Measure::SIPr,
                    pred::study::Measure::IIPr};
  good.pr = ref.pr;
  good.sipr = ref.sipr;
  good.iipr = ref.iipr;

  pred::study::Finding badWitness = good;
  badWitness.sipr.q1 = 2;
  pred::study::Finding badValue = good;
  badValue.pr.value = 0.2500000001;
  pred::study::Finding missing = good;
  missing.requested.pop_back();

  perfbench::ErrorTally tally;
  CHECK(tally.rate() == 0.0);
  for (const auto* f : {&good, &good, &badWitness, &good, &badValue, &missing}) {
    tally.record(perfbench::matches(*f, ref));
  }
  CHECK(tally.attempted() == 6);
  CHECK(tally.failed() == 3);
  CHECK(tally.rate() == 0.5);

  // Accumulator bytes (the grid-submit check): one flipped byte fails.
  const std::string refBytes = "pred-measures v1 8 64 ...";
  std::string corrupted = refBytes;
  corrupted[5] ^= 1;
  perfbench::ErrorTally bytes;
  bytes.record(refBytes == refBytes);
  bytes.record(corrupted == refBytes);
  CHECK(bytes.failed() == 1);
  CHECK(bytes.rate() == 0.5);
}

void names() {
  using perfbench::validName;
  CHECK(validName("latency_p50_ms"));
  CHECK(validName("exp.replay.inorder-lru.ns_per_cell"));
  CHECK(validName("query-cold"));
  CHECK(validName("0th"));
  CHECK(!validName(""));
  CHECK(!validName("query cold"));
  CHECK(!validName("a/b"));
  CHECK(!validName("rate%"));
  CHECK(!validName("_leading"));
  CHECK(!validName("-leading"));
  CHECK(!validName("caf\xc3\xa9"));
  CHECK(!validName(std::string(65, 'x')));
  CHECK(validName(std::string(64, 'x')));

  CHECK(perfbench::validUnit("1/s"));
  CHECK(perfbench::validUnit("%"));
  CHECK(!perfbench::validUnit("m s"));

  perfbench::MetricSet m;
  m.add("ops_per_s", "1/s", 12.5);
  CHECK(throwsInvalid([&] { m.add("bad name", "ms", 1); }));
  CHECK(throwsInvalid([&] { m.add("ok_name", "bad unit", 1); }));
  CHECK(throwsInvalid([&] { m.add("ops_per_s", "1/s", 1); }));
  CHECK(m.items().size() == 1);

  const std::string json = perfbench::resultJson(true, 3, 0, m);
  CHECK(json ==
        "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
        "{\"ops_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}}}");
}

}  // namespace

int main() {
  tailPercentiles();
  selfTimes();
  errorCounting();
  names();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::puts("perfbench selftest: all checks passed");
  return EXIT_SUCCESS;
}
