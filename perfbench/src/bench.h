#pragma once
// bench.h — The contract between the measuring loop (main.cpp) and the
// three workloads, plus the seeded input generation and the reference
// oracle they share.
//
// A workload object is one complete set-up: constructing it generates the
// inputs from the seed, computes every reference result, starts whatever
// servers it needs and warms up.  op(k) runs operation k and verifies it;
// tracedOp(k) runs the same operation decomposed into spans around the
// public library calls it is made of, verifies it, and may add per-op
// layer samples (counts, ratios, per-cell costs) that spans cannot carry.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/definitions.h"
#include "exp/engine.h"
#include "exp/platform.h"
#include "isa/machine.h"
#include "isa/program.h"
#include "study/finding.h"
#include "trace.h"

namespace perfbench {

namespace cache = pred::cache;
namespace core = pred::core;
namespace exp = pred::exp;
namespace isa = pred::isa;
namespace obs = pred::obs;
namespace study = pred::study;

/// Per-op samples of layer metrics, by metric name.  The reported value of
/// each is the median over the traced ops.
using LayerSamples = std::map<std::string, std::vector<double>>;

struct OpOutcome {
  bool ok = false;        ///< the result matched its reference
  bool cacheHit = false;  ///< answered by the grid server's result cache
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Untraced operation k (k counts from 0 within one loop).
  virtual OpOutcome op(std::uint64_t k) = 0;
  /// Traced operation k: opens the root span "op" for exactly the work of
  /// op(k), with one child span per layer call; work done only to attribute
  /// cost (attribution passes, per-grid probes) runs after the root closes,
  /// under roots of its own carrying the same op id.
  virtual OpOutcome tracedOp(std::uint64_t k, SpanLog& log,
                             LayerSamples& samples) = 0;
  /// Layer samples only known once the traced loop ends (server counters).
  virtual void finishTrace(LayerSamples& samples) { (void)samples; }
};

/// Builds one set-up of the named workload; `scratchDir` is a private
/// directory inside the checkout the workload may write to.
std::unique_ptr<Workload> makeQueryCold(std::uint64_t seed);
std::unique_ptr<Workload> makeSweepWarm(std::uint64_t seed);
std::unique_ptr<Workload> makeGridSubmit(std::uint64_t seed,
                                         const std::string& scratchDir);

// ------------------------------------------------------------- inputs

/// Stateless 64-bit mix of a seed and two stream ids (splitmix64 finalizer).
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0);

/// The linear-search-16 program (branchy compilation), reading a[0..15] and
/// key.
isa::Program linearSearchProgram();
/// The bubble-sort-8 program (branchy compilation), reading a[0..7].
isa::Program bubbleSortProgram();

/// `count` inputs filling a[0..n-1] with values drawn uniformly from
/// [0, range) by a generator seeded with `seed`; when `key` >= 0 each input
/// also binds the scalar `key`.
std::vector<isa::Input> arrayInputs(const isa::Program& program, int n,
                                    int count, std::uint64_t seed,
                                    std::int64_t range, std::int64_t key = -1);

// ------------------------------------------------------------- oracle

/// The reference engine: interpreted replay, no trace-class collapse, so
/// the reference shares neither fast path with the ops it checks.
exp::EngineConfig oracleConfig();

/// Exhaustive results of one grid, computed through computeMatrix and the
/// core:: evaluators of Definitions 3-5.
struct Reference {
  core::Cycles bcet = 0;
  core::Cycles wcet = 0;
  core::PredictabilityValue pr, sipr, iipr;
};
Reference referenceOf(exp::ExperimentEngine& oracle,
                      const exp::TimingModel& model,
                      const isa::Program& program,
                      const std::vector<isa::Input>& inputs);

/// Values and witnesses of a Finding equal the reference exactly.
bool matches(const study::Finding& f, const Reference& ref);

// ------------------------------------------------------------- probes

/// Duration of span `index` in ms.
double spanMs(const SpanLog& log, int index);

/// Attribution pass over `inputs` under an "attr" root: the functional run,
/// traceFingerprint and compileTrace of every input, each stage one child
/// span (isa.functional_run, exp.trace_store.fingerprint,
/// exp.replay.compile).  Returns the three stages' summed ms.
double attributeResolve(SpanLog& log, std::uint64_t op,
                        const isa::Program& program,
                        const std::vector<isa::Input>& inputs);

/// StreamingMeasures::serialize plus deserialize of `acc` as the span
/// core.measures.codec under a "probe" root.  False when the round trip
/// changes the bytes.
bool codecProbe(SpanLog& log, std::uint64_t op,
                const core::StreamingMeasures& acc);

}  // namespace perfbench
