#include <algorithm>
#include <optional>
#include <thread>

#include "bench.h"
#include "exp/replay.h"
#include "exp/trace_store.h"
#include "isa/ast.h"
#include "isa/exec.h"
#include "isa/workloads.h"

namespace perfbench {

std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = seed ^ (a * 0x9E3779B97F4A7C15ull) ^
                    (b * 0xC2B2AE3D27D4EB4Full) ^ 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

isa::Program linearSearchProgram() {
  return isa::ast::compileBranchy(isa::workloads::linearSearch(16));
}

isa::Program bubbleSortProgram() {
  return isa::ast::compileBranchy(isa::workloads::bubbleSort(8));
}

std::vector<isa::Input> arrayInputs(const isa::Program& program, int n,
                                    int count, std::uint64_t seed,
                                    std::int64_t range, std::int64_t key) {
  const std::int64_t base = program.variables.at("a");
  std::vector<isa::Input> inputs;
  inputs.reserve(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k) {
    isa::Input in;
    in.name = "a#" + std::to_string(k);
    for (int j = 0; j < n; ++j) {
      const std::uint64_t r =
          mixSeed(seed, static_cast<std::uint64_t>(k), static_cast<std::uint64_t>(j));
      in.mem[base + j] = static_cast<std::int64_t>(
          r % static_cast<std::uint64_t>(range));
    }
    if (key >= 0) in.mem[program.variables.at("key")] = key;
    inputs.push_back(std::move(in));
  }
  return inputs;
}

exp::EngineConfig oracleConfig() {
  exp::EngineConfig c;
  const unsigned hw = std::thread::hardware_concurrency();
  c.threads = static_cast<int>(std::clamp(hw, 1u, 4u));
  c.usePackedReplay = false;
  c.collapseTraceClasses = false;
  return c;
}

Reference referenceOf(exp::ExperimentEngine& oracle,
                      const exp::TimingModel& model,
                      const isa::Program& program,
                      const std::vector<isa::Input>& inputs) {
  const core::TimingMatrix m = oracle.computeMatrix(model, program, inputs);
  Reference r;
  r.bcet = m.bcet();
  r.wcet = m.wcet();
  r.pr = core::timingPredictability(m);
  r.sipr = core::stateInducedPredictability(m);
  r.iipr = core::inputInducedPredictability(m);
  return r;
}

namespace {

bool sameValue(const core::PredictabilityValue& a,
               const core::PredictabilityValue& b) {
  return a.value == b.value && a.minTime == b.minTime &&
         a.maxTime == b.maxTime && a.q1 == b.q1 && a.i1 == b.i1 &&
         a.q2 == b.q2 && a.i2 == b.i2;
}

}  // namespace

bool matches(const study::Finding& f, const Reference& ref) {
  return f.bcet == ref.bcet && f.wcet == ref.wcet &&
         f.has(study::Measure::Pr) && f.has(study::Measure::SIPr) &&
         f.has(study::Measure::IIPr) && sameValue(f.pr, ref.pr) &&
         sameValue(f.sipr, ref.sipr) && sameValue(f.iipr, ref.iipr);
}

double spanMs(const SpanLog& log, int index) {
  const Span& s = log.spans().at(static_cast<std::size_t>(index));
  return static_cast<double>(s.endNs - s.startNs) / 1e6;
}

double attributeResolve(SpanLog& log, std::uint64_t op,
                        const isa::Program& program,
                        const std::vector<isa::Input>& inputs) {
  ScopedSpan root(log, "attr", op);
  std::vector<isa::Trace> traces;
  traces.reserve(inputs.size());
  std::uint64_t sink = 0;
  double total = 0;
  const auto timed = [&](const char* name, const auto& body) {
    const int s = log.begin(name, op, root.index());
    body();
    log.end(s);
    total += spanMs(log, s);
  };
  timed("isa.functional_run", [&] {
    for (const auto& in : inputs) {
      traces.push_back(isa::FunctionalCore::run(program, in).trace);
    }
  });
  timed("exp.trace_store.fingerprint", [&] {
    for (const auto& t : traces) sink ^= exp::traceFingerprint(t);
  });
  timed("exp.replay.compile", [&] {
    for (const auto& t : traces) sink += exp::compileTrace(t).length();
  });
  // Keeps the fingerprints and compiled lengths observable.
  asm volatile("" : : "r"(sink) : "memory");
  return total;
}

bool codecProbe(SpanLog& log, std::uint64_t op,
                const core::StreamingMeasures& acc) {
  std::string text;
  std::optional<core::StreamingMeasures> parsed;
  {
    ScopedSpan root(log, "probe", op);
    ScopedSpan s(log, "core.measures.codec", op, root.index());
    text = acc.serialize();
    parsed.emplace(core::StreamingMeasures::deserialize(text));
  }
  return parsed->serialize() == text;
}

}  // namespace perfbench
