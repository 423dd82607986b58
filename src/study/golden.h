#pragma once
// golden.h — The golden findings: the numbers every evaluation path must
// keep returning.
//
// The differential, shard and grid gates compare evaluation paths with each
// other, so a change that moves every path at once (state enumeration, the
// OOO kernel both OOO paths instantiate, input generation) passes all of
// them.  The golden pins the numbers themselves: one line per registry
// workload x platform preset at default options, plus one line per registry
// workload on each of kGoldenManyStatePresets at kGoldenManyStates states,
// where enumerated states repeat.  A line holds BCET, WCET, and Pr, SIPr and
// IIPr as exact minTime/maxTime ratios with their witnesses:
//
//   <workload> <platform> states=<|Q|> inputs=<|I|> bcet=<c> wcet=<c>
//       pr=<min>/<max>@<q1>,<i1>,<q2>,<i2> sipr=... iipr=...
//
// (one line in the file).  The header records kCodeVersionSalt
// (grid/fingerprint.h), which keys every cached grid result: a change that
// moves a line must bump it.  tests/golden_test.cpp diffs the checked-in
// file tests/golden/findings.txt line by line; only the pred-golden-findings
// tool regenerates it:
//
//   ./build/pred-golden-findings > tests/golden/findings.txt

#include <string>
#include <vector>

#include "exp/engine.h"
#include "study/finding.h"

namespace pred::study {

/// |Q| of the many-state lines.
inline constexpr int kGoldenManyStates = 64;

/// The presets the many-state lines cover: every cached data-cache preset,
/// the ones whose states repeat as |Q| grows.
inline const std::vector<std::string> kGoldenManyStatePresets = {
    "inorder-lru",        "inorder-fifo",        "inorder-plru",
    "inorder-random",     "inorder-lru-icache",  "inorder-lru-bimodal",
    "ooo-lru",            "ooo-fifo"};

/// One golden line of a finding (see the file comment).
std::string goldenLine(const Finding& f);

/// The golden file: its header lines, then one line per finding: first
/// every workload x preset at default options (both in sorted registry
/// order), then every workload on kGoldenManyStatePresets (in that order)
/// at kGoldenManyStates states.  Evaluated through `engine`.
std::vector<std::string> goldenFindings(exp::ExperimentEngine& engine);

}  // namespace pred::study
