// golden_findings.cpp — pred-golden-findings: prints the golden findings
// (study/golden.h) to stdout, header first, one line per finding.
//
// The one command that regenerates the checked-in golden:
//
//   ./build/pred-golden-findings > tests/golden/findings.txt
//
// tests/golden_test.cpp only compares against that file; it never writes
// it.  A regenerated file that differs means some number moved: explain the
// move in CHANGES.md and bump kCodeVersionSalt (grid/fingerprint.h) so no
// result cache serves the old bytes.

#include <exception>
#include <iostream>

#include "exp/engine.h"
#include "study/golden.h"

int main() {
  try {
    pred::exp::ExperimentEngine engine;
    for (const auto& line : pred::study::goldenFindings(engine)) {
      std::cout << line << "\n";
    }
    return std::cout.good() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "pred-golden-findings: " << e.what() << "\n";
    return 1;
  }
}
