#pragma once
// finding.h — The unified result type of the study layer.
//
// Before the study layer, a caller got one of three result shapes depending
// on the door it entered through: raw core:: evaluators returned
// PredictabilityValue, scenario grids returned ScenarioResult, and the
// template's instances returned untyped Measurement vectors.  A Finding
// subsumes all three: it names the workload x platform cell, carries the
// evaluated measures of Definitions 3-5 WITH their witnesses, records the
// inherence provenance (the paper's exhaustive-vs-sampled-vs-analysis
// distinction), and optionally attaches the Figure 1 bounds decomposition
// and the raw timing matrix.  A StudyReport is a list of findings plus the
// table/CSV/JSON sinks every experiment shares.

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/definitions.h"
#include "core/measures.h"
#include "core/template.h"
#include "obs/run_report.h"

namespace pred::study {

/// The predictability measures a query can evaluate (Definitions 3-5).
enum class Measure : std::uint8_t {
  Pr,    ///< Def. 3: min/max over all (q, i) pairs
  SIPr,  ///< Def. 4: state-induced, per fixed input
  IIPr,  ///< Def. 5: input-induced, per fixed state
};

std::string toString(Measure m);

/// One fully evaluated workload x platform cell.
struct Finding {
  std::string workload;
  std::string platform;
  std::size_t numStates = 0;  ///< |Q| actually enumerated
  std::size_t numInputs = 0;  ///< |I|
  core::Cycles bcet = 0;      ///< best observed time over the queried domain
  core::Cycles wcet = 0;      ///< worst observed time over the queried domain
  core::EvalMode mode = core::EvalMode::Exhaustive;
  core::Inherence provenance = core::Inherence::Exhaustive;

  /// Which of pr/sipr/iipr below were requested and are therefore valid.
  std::vector<Measure> requested;
  core::PredictabilityValue pr;
  core::PredictabilityValue sipr;
  core::PredictabilityValue iipr;

  /// Human-readable labels of the enumerated hardware states (witness
  /// indices q1/q2 of the measures index into this).
  std::vector<std::string> stateLabels;

  /// Figure 1 decomposition; present in AnalysisBounds mode.
  std::optional<core::BoundsDecomposition> bounds;

  /// The raw |Q| x |I| matrix; present only when the query asked to keep it
  /// (large sweeps drop it so grids don't hold |Q|x|I| cells per finding).
  std::optional<core::TimingMatrix> matrix;

  /// Per-run observability: the engine's counter/phase/worker deltas over
  /// exactly this evaluation (obs/run_report.h), attached by the query
  /// layer.  A distributed run's report holds its wall time and the
  /// grid.cache.hit flag; the per-shard view of a grid job is the server's
  /// fleet report (`pred-grid-client stats`).  Deliberately NOT
  /// rendered by StudyReport::table/csv/json — those formats are
  /// golden-file-stable; use report->text() / report->json() directly.
  std::optional<obs::RunReport> report;

  bool has(Measure m) const;
  /// The evaluated measure; throws std::logic_error if it was not requested.
  const core::PredictabilityValue& value(Measure m) const;

  /// One-line "workload on platform: Pr=..." summary.
  std::string summary() const;
};

/// A batch of findings plus the render sinks.
struct StudyReport {
  std::vector<Finding> findings;

  /// Monospace grid (core::TextTable idiom).
  std::string table() const;
  /// CSV with a header row; RFC-4180 quoting; one line per finding.
  /// Measures that were not requested render as empty fields.
  std::string csv() const;
  /// JSON array of objects, one per finding; bounds fields only when
  /// present.
  std::string json() const;

  static std::string table(const std::vector<Finding>& findings);
  static std::string csv(const std::vector<Finding>& findings);
  static std::string json(const std::vector<Finding>& findings);
};

}  // namespace pred::study
