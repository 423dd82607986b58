#pragma once
// query.h — The library's front door: declarative predictability queries.
//
// The paper's contribution is a template — property x uncertainty x quality
// measure.  A Query is that template made runnable in one expression:
//
//   study::Query()
//       .workload("bubblesort-8")            // I (WorkloadRegistry)
//       .platform("ooo-fifo")                // Q (PlatformRegistry)
//       .measures({Measure::Pr, Measure::SIPr, Measure::IIPr})
//       .mode(Exhaustive{})                  // the default mode
//       .run(engine);                        // -> Finding
//
// The other two modes: Sampled{samples, seed} estimates Pr alone (Def. 3)
// and rejects an explicit SIPr or IIPr request, uncertainty subsets and
// keepMatrix; AnalysisBounds{} adds Figure 1's static bounds and runs on
// inorder-lru and inorder-lru-icache only.
//
// A Query is a thin fluent shell over core::QuerySpec — the same data a
// Table 1/2 row carries (study/catalog.h) — so every row of the paper's
// survey compiles to a query and every query renders back into a table row.
// Exhaustive-mode results are bit-identical to the legacy core:: evaluators
// on the same matrices (asserted by tests): the study layer adds naming,
// batching, and provenance, never different arithmetic.  Every exhaustive
// Finding, subsets and kept matrices included, is read off one
// core::StreamingMeasures fed by the engine's walk.
//
// run and runAll evaluate in-process; runDistributed is the one way a grid
// leaves the process — a pred-grid-server splits it across its workers and
// merges the shards back into the same Finding (study/distributed.h).

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/template.h"
#include "exp/engine.h"
#include "exp/platform.h"
#include "study/finding.h"
#include "study/workloads.h"

namespace pred::grid {
class GridClient;  // study/distributed.h glue; avoids a heavy include here
}

namespace pred::study {

/// Evaluation modes (QuerySpec::mode), as fluent-API tags.
struct Exhaustive {};
struct Sampled {
  std::size_t samples = 256;
  std::uint64_t seed = 1;
};
struct AnalysisBounds {};

class Query {
 public:
  /// Uses the shared registries by default.
  explicit Query(
      const WorkloadRegistry& workloads = WorkloadRegistry::instance(),
      const exp::PlatformRegistry& platforms =
          exp::PlatformRegistry::instance());

  /// Selects a registered workload by name.
  Query& workload(std::string name);
  /// Binds an inline workload (program + inputs) under the given label.
  Query& workload(std::string label, isa::Program program,
                  std::vector<isa::Input> inputs);

  /// Selects the platform (repeatable; run() requires exactly one, while
  /// runAll() crosses all of them).
  Query& platform(std::string name);
  Query& platform(std::string name, exp::PlatformOptions options);

  /// Platform options applied to every platform of this query that was
  /// added without explicit options.  Also syncs spec().numStates.
  Query& options(exp::PlatformOptions options);

  /// The measures to evaluate; default all of Pr, SIPr, IIPr.  Sampled
  /// mode supports Pr only and rejects any other explicit request.
  Query& measures(std::vector<Measure> ms);

  /// Extent-of-uncertainty restriction: quantify over these state/input
  /// indices only (Section 2's partial-knowledge refinement).  An empty
  /// vector means the full enumerated set on that axis.  Each list is a
  /// set: order and repeats do not matter, and every witness is the
  /// smallest attaining index, as on the full axes.  Exhaustive modes
  /// only; an index outside its axis throws std::invalid_argument from
  /// run() and runAll().
  Query& uncertainty(std::vector<std::size_t> stateSubset,
                     std::vector<std::size_t> inputSubset);

  Query& mode(Exhaustive);
  Query& mode(Sampled s);
  Query& mode(AnalysisBounds);

  /// Declarative template aspects (rendered by tableRow; no effect on the
  /// computation).
  Query& property(core::Property p);
  Query& sources(std::vector<core::Uncertainty> us);
  Query& measureKind(core::MeasureKind m);

  /// Keep the raw timing matrix in the Finding (off by default: a grid of
  /// findings should not hold |Q| x |I| cells per cell).
  Query& keepMatrix(bool keep = true);

  /// The declarative form of this query (a Table 1/2 row's worth of data).
  const core::QuerySpec& spec() const { return spec_; }

  /// Runs the query on one workload x platform pair.  Throws
  /// std::invalid_argument if no workload is bound, if the query names more
  /// or fewer than one platform, or if it cannot run as declared (an
  /// unsupported mode or an out-of-range subset index) — always before the
  /// first trace is resolved.
  Finding run(exp::ExperimentEngine& engine) const;

  /// Runs the workload against every platform of the query, in declaration
  /// order.  Checks every platform as run() does before running any.
  StudyReport runAll(exp::ExperimentEngine& engine) const;

  /// Distributed evaluation, the one way a grid leaves the process: ships
  /// the whole-grid ShardSpec to a pred-grid-server through `client`, which
  /// schedules it across its worker fleet (split `shards` ways) and streams
  /// back the merged accumulator.  The Finding is identical to run()'s —
  /// the server-side merge is the order-independent mergeShards — and a
  /// repeated query is answered from the server's content-addressed result
  /// cache (Finding::report carries a "grid.cache.hit" counter; `useCache`
  /// false forces recomputation).  Requires a REGISTRY workload (an inline
  /// program cannot be named to a worker process), exactly one platform,
  /// Exhaustive mode, no uncertainty subsets and no keepMatrix; throws
  /// std::invalid_argument, before contacting the server, otherwise.
  /// Implemented in study/distributed.cpp.
  Finding runDistributed(grid::GridClient& client, std::size_t shards,
                         bool useCache = true) const;
  /// Convenience overload: dials `endpoint` ("unix:PATH"/"tcp:HOST:PORT")
  /// for a single-query connection.
  Finding runDistributed(const std::string& endpoint, std::size_t shards,
                         bool useCache = true) const;

 private:
  /// evalOne computes the Finding: Sampled mode draws its cells, the
  /// exhaustive modes fold one accumulator rectangle by rectangle (one
  /// rectangle without subsets).  runOne wraps it with the observability
  /// snapshot (engine.report() before/after, attached as a per-run delta in
  /// Finding::report alongside the measured wall time).
  Finding evalOne(exp::ExperimentEngine& engine, const WorkloadInstance& w,
                  const std::string& platform,
                  const exp::PlatformOptions& options) const;
  Finding runOne(exp::ExperimentEngine& engine, const WorkloadInstance& w,
                 const std::string& platform,
                 const exp::PlatformOptions& options) const;
  /// Throws std::invalid_argument unless this query can shard: registry
  /// workload, exactly one platform, Exhaustive mode, no subsets, no
  /// keepMatrix.
  void requireShardable() const;
  /// Throws std::invalid_argument if any part of the query cannot run:
  /// Sampled-mode restrictions, a platform without a bound analysis in
  /// AnalysisBounds mode, or a subset index outside |Q| (every platform's
  /// model) or |I|.  run and runAll call it before resolving any trace.
  void requireRunnable(exp::ExperimentEngine& engine,
                       const WorkloadInstance& w) const;
  /// AnalysisBounds tail of evalOne's exhaustive path: attaches the
  /// Figure-1 decomposition computed from the finding's BCET/WCET.
  void attachBounds(Finding& f, const WorkloadInstance& w,
                    const std::string& platform,
                    const exp::PlatformOptions& options) const;
  exp::PlatformOptions optionsFor(std::size_t platformIndex) const;
  /// The bound workload: the inline instance directly, or the registry
  /// workload materialized once into `storage`.
  const WorkloadInstance& resolveWorkload(
      std::optional<WorkloadInstance>& storage) const;

  const WorkloadRegistry* workloads_;
  const exp::PlatformRegistry* platforms_;
  core::QuerySpec spec_;
  std::optional<WorkloadInstance> inlineWorkload_;
  std::vector<std::optional<exp::PlatformOptions>> platformOptions_;
  std::optional<exp::PlatformOptions> defaultOptions_;
  std::vector<Measure> measures_ = {Measure::Pr, Measure::SIPr,
                                    Measure::IIPr};
  bool measuresExplicit_ = false;
  bool keepMatrix_ = false;
};

namespace detail {

/// A name as a RunReport label, which is one wire token: registry names
/// already are, but inline workload labels are free-form, so whitespace
/// maps to '_' (and an empty name to "-").
std::string reportLabel(const std::string& s);

/// Nanoseconds since `start` on the steady clock.
std::uint64_t elapsedNs(std::chrono::steady_clock::time_point start);

/// Assembles an exhaustive Finding from an accumulator fed with every cell
/// of the quantified domain (Q x I, or the subsets' rectangles).  The one
/// place an exhaustive Finding gets its measures: Query::run, the batched
/// ScenarioSuite pass and runDistributed all call it, so a batched or
/// distributed cell is identical to its sequential query by construction
/// (and asserted field-for-field in tests/scenario_test.cpp).
Finding streamingFinding(const std::string& workload,
                         const std::string& platform,
                         const exp::TimingModel& model,
                         std::size_t numInputs, core::EvalMode mode,
                         const std::vector<Measure>& measures,
                         const core::StreamingMeasures& acc);

}  // namespace detail

/// Compiles a declarative QuerySpec (e.g. a catalog row) into a runnable
/// query: resolves the workload and platform names against the registries
/// and forwards mode, subsets, and |Q|.  Throws std::invalid_argument when
/// the spec is declarative-only (empty workload/platform) or names unknown
/// entries.
Query compile(const core::QuerySpec& spec,
              const WorkloadRegistry& workloads = WorkloadRegistry::instance(),
              const exp::PlatformRegistry& platforms =
                  exp::PlatformRegistry::instance());

}  // namespace pred::study
