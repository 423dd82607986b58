#pragma once
// stats.h — The benchmark's own arithmetic: percentiles with the
// samples-beyond rule, error counting, metric-name validation, and the
// one-line JSON result the runner prints last.
//
// Kept free of library includes so tests/selftest.cpp can pin every rule
// without linking the predictability library.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `sorted` (ascending, non-empty): the value at
/// rank ceil(p/100 * n), 1-based.  p in (0, 100].
double percentileSorted(const std::vector<double>& sorted, double p);

/// Median (the 50th nearest-rank percentile); 0 for an empty sample.
double median(std::vector<double> samples);

/// The reported tail of a latency sample: the highest percentile of the
/// ladder {99.9, 99, 95, 90, 75, 50}, at most `maxPercentile`, that leaves
/// at least kMinBeyond samples strictly above its rank.  When no rung
/// qualifies (fewer than 20 samples) the median rung is returned with
/// `qualified` false.  A workload caps the ladder at the rung its sample
/// count clears with room to spare, so the reported percentile does not
/// change between two runs whose op rates differ modestly.
struct Tail {
  static constexpr std::size_t kMinBeyond = 10;
  double percentile = 50;
  double value = 0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  ///< samples ranked above the percentile
  bool qualified = false;
};
Tail tailOf(std::vector<double> samples, double maxPercentile = 99.9);

/// Operations attempted and failed.  An op fails when it throws, reports
/// an error, or returns a result that differs from its reference.
class ErrorTally {
 public:
  void record(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// failed / attempted; 0 when nothing was attempted.
  double rate() const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Metric and workload names: 1..64 characters from [A-Za-z0-9_.-],
/// starting with a letter or digit.
bool validName(std::string_view name);
/// Units: 1..16 characters from [A-Za-z0-9_/%.-].
bool validUnit(std::string_view unit);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// Metrics in insertion order; add() throws std::invalid_argument on an
/// invalid or repeated name or an invalid unit.
class MetricSet {
 public:
  void add(const std::string& name, const std::string& unit, double value);
  const std::vector<Metric>& items() const { return items_; }
  /// The named metric's value; throws std::out_of_range when absent.
  double at(const std::string& name) const;

 private:
  std::vector<Metric> items_;
};

/// The final result line:
/// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
/// Values keep every digit (17 significant), never rounded.
std::string resultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed, const MetricSet& metrics);

/// Quotes `s` as a JSON string.
std::string jsonString(std::string_view s);

}  // namespace perfbench
