#include "calibrate.h"

#include <array>

#include "stats.h"
#include "trace.h"

namespace perfbench {

namespace {

/// Iterations that take about kReferenceNs on the reference container.
constexpr int kIterations = 160'000;

}  // namespace

std::uint64_t calibrationChunkNs() {
  // Integer mixing, a data-dependent branch and loads/stores into an
  // L1-resident table: the instruction mix of trace replay, without any
  // library code.
  std::array<std::uint32_t, 4096> table{};
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  std::uint64_t acc = 0;
  const std::uint64_t t0 = nowNs();
  for (int i = 0; i < kIterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[x & 4095] += static_cast<std::uint32_t>(i);
    if (x & 1) acc += table[(x >> 12) & 4095];
  }
  const std::uint64_t t1 = nowNs();
  asm volatile("" : : "r"(acc), "r"(table.data()) : "memory");
  return t1 - t0;
}

double slowdownFactor(const std::vector<double>& chunkNs) {
  if (chunkNs.empty()) return 1.0;
  return median(chunkNs) / kReferenceNs;
}

}  // namespace perfbench
