#include "study/golden.h"

#include "exp/platform.h"
#include "grid/fingerprint.h"
#include "study/query.h"
#include "study/workloads.h"

namespace pred::study {

namespace {

std::string ratio(const char* key, const core::PredictabilityValue& v) {
  return std::string(" ") + key + "=" + std::to_string(v.minTime) + "/" +
         std::to_string(v.maxTime) + "@" + std::to_string(v.q1) + "," +
         std::to_string(v.i1) + "," + std::to_string(v.q2) + "," +
         std::to_string(v.i2);
}

}  // namespace

std::string goldenLine(const Finding& f) {
  return f.workload + " " + f.platform +
         " states=" + std::to_string(f.numStates) +
         " inputs=" + std::to_string(f.numInputs) +
         " bcet=" + std::to_string(f.bcet) +
         " wcet=" + std::to_string(f.wcet) + ratio("pr", f.pr) +
         ratio("sipr", f.sipr) + ratio("iipr", f.iipr);
}

std::vector<std::string> goldenFindings(exp::ExperimentEngine& engine) {
  std::vector<std::string> lines = {
      "# pred golden findings v1",
      "# salt " + std::string(grid::kCodeVersionSalt),
      "# regenerate: ./build/pred-golden-findings > tests/golden/findings.txt",
  };
  const auto platforms = exp::PlatformRegistry::instance().names();
  const auto workloads = WorkloadRegistry::instance().names();
  exp::PlatformOptions many;
  many.numStates = kGoldenManyStates;
  for (const bool manyStates : {false, true}) {
    for (const auto& w : workloads) {
      Query q;
      q.workload(w);
      for (const auto& p : manyStates ? kGoldenManyStatePresets : platforms) {
        if (manyStates) {
          q.platform(p, many);
        } else {
          q.platform(p);
        }
      }
      for (const Finding& f : q.runAll(engine).findings) {
        lines.push_back(goldenLine(f));
      }
    }
  }
  return lines;
}

}  // namespace pred::study
