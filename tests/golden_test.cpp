// golden_test.cpp — The golden findings (study/golden.h): every registry
// workload x platform preset, plus the many-state lines, must reproduce the
// checked-in tests/golden/findings.txt line for line.  The differential
// gates compare paths with each other; this one pins the numbers, so a
// change that moves every path at once (state enumeration, the OOO kernel,
// input generation) fails here and names the pair that moved.
//
// The test never writes the file.  Regenerate it only with
//   ./build/pred-golden-findings > tests/golden/findings.txt
// and explain every moved line in CHANGES.md.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "exp/engine.h"
#include "grid/fingerprint.h"
#include "study/golden.h"

namespace pred {
namespace {

std::vector<std::string> readLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(GoldenFindings, EveryWorkloadOnEveryPresetMatchesTheCheckedInGolden) {
  const auto golden = readLines(PRED_GOLDEN_FINDINGS);
  ASSERT_FALSE(golden.empty()) << "cannot read " << PRED_GOLDEN_FINDINGS;
  exp::ExperimentEngine engine;
  const auto now = study::goldenFindings(engine);
  // The header records the salt the numbers were made under.
  EXPECT_EQ(golden.at(1), "# salt " + std::string(grid::kCodeVersionSalt));
  const std::size_t n = std::min(golden.size(), now.size());
  std::size_t moved = 0;
  for (std::size_t k = 0; k < n; ++k) {
    if (golden[k] != now[k]) {
      ++moved;
      ADD_FAILURE() << "golden line " << k + 1 << " moved:\n  golden: "
                    << golden[k] << "\n  now:    " << now[k];
    }
  }
  EXPECT_EQ(moved, 0u);
  EXPECT_EQ(now.size(), golden.size())
      << "line count differs: a workload or preset was added or removed";
}

}  // namespace
}  // namespace pred
