#include "exp/shard.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/wire.h"

namespace pred::exp {

namespace {

constexpr const char* kWireContext = "ShardSpec";

[[noreturn]] void badSpec(const std::string& what) {
  core::wire::fail(kWireContext, what);
}

/// Registry preset names are the wire format's only free-form tokens; the
/// format is whitespace-separated, so names must not contain any.
void checkName(const std::string& name, const char* field) {
  if (name.empty()) badSpec(std::string("empty ") + field + " name");
  for (const char c : name) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      badSpec(std::string(field) + " name '" + name +
              "' contains whitespace and cannot be serialized");
    }
  }
}

std::string nextToken(std::istream& in, const std::string& expecting) {
  return core::wire::nextToken(in, kWireContext, expecting);
}

template <typename T>
T number(std::istream& in, const std::string& field) {
  return core::wire::nextNumber<T>(in, kWireContext, field);
}

bool flag(std::istream& in, const std::string& field) {
  const auto v = number<int>(in, field);
  if (v != 0 && v != 1) badSpec(field + " must be 0 or 1");
  return v == 1;
}

cache::CacheGeometry getGeom(std::istream& in, const std::string& key) {
  cache::CacheGeometry g;
  g.lineWords = number<std::int64_t>(in, key + " lineWords");
  g.numSets = number<std::int64_t>(in, key + " numSets");
  g.ways = number<int>(in, key + " ways");
  if (g.lineWords <= 0 || g.numSets <= 0 || g.ways <= 0) {
    badSpec(key + " dimensions must be positive");
  }
  return g;
}

cache::CacheTiming getTiming(std::istream& in, const std::string& key) {
  cache::CacheTiming t;
  t.hitLatency = number<Cycles>(in, key + " hitLatency");
  t.missLatency = number<Cycles>(in, key + " missLatency");
  return t;
}

/// Near-even split: part p of n over the half-open [lo, hi).
std::pair<std::size_t, std::size_t> slice(std::size_t lo, std::size_t hi,
                                          std::size_t p, std::size_t n) {
  const std::size_t span = hi - lo;
  return {lo + span * p / n, lo + span * (p + 1) / n};
}

}  // namespace

std::string serializeShardSpec(const ShardSpec& spec) {
  checkName(spec.platform, "platform");
  checkName(spec.workload, "workload");
  std::ostringstream os;
  os << "pred-shard v1\n";
  os << "platform " << spec.platform << "\n";
  os << "workload " << spec.workload << "\n";
  os << "q " << spec.qBegin << " " << spec.qEnd << "\n";
  os << "i " << spec.iBegin << " " << spec.iEnd << "\n";
  os << "engine " << spec.engine.threads << " " << spec.engine.tileStates
     << " " << spec.engine.tileInputs << " "
     << (spec.engine.usePackedReplay ? 1 : 0) << " "
     << (spec.engine.collapseTraceClasses ? 1 : 0) << "\n";
  os << canonicalOptionsText(spec.options);
  os << "end\n";
  return os.str();
}

ShardSpec parseShardSpec(const std::string& text) {
  std::istringstream in(text);
  if (nextToken(in, "'pred-shard' header") != "pred-shard" ||
      nextToken(in, "version") != "v1") {
    badSpec("missing 'pred-shard v1' header");
  }
  ShardSpec spec;
  std::set<std::string> seen;
  for (std::string key = nextToken(in, "a field key or 'end'"); key != "end";
       key = nextToken(in, "a field key or 'end'")) {
    if (!seen.insert(key).second) badSpec("duplicate field '" + key + "'");
    if (key == "platform") {
      spec.platform = nextToken(in, "platform name");
    } else if (key == "workload") {
      spec.workload = nextToken(in, "workload name");
    } else if (key == "q") {
      spec.qBegin = number<std::size_t>(in, "q begin");
      spec.qEnd = number<std::size_t>(in, "q end");
      if (spec.qBegin >= spec.qEnd) {
        badSpec("bad state range [" + std::to_string(spec.qBegin) + ", " +
                std::to_string(spec.qEnd) + ")");
      }
    } else if (key == "i") {
      spec.iBegin = number<std::size_t>(in, "i begin");
      spec.iEnd = number<std::size_t>(in, "i end");
      if (spec.iBegin >= spec.iEnd) {
        badSpec("bad input range [" + std::to_string(spec.iBegin) + ", " +
                std::to_string(spec.iEnd) + ")");
      }
    } else if (key == "engine") {
      spec.engine.threads = number<int>(in, "engine threads");
      spec.engine.tileStates = number<std::size_t>(in, "engine tileStates");
      spec.engine.tileInputs = number<std::size_t>(in, "engine tileInputs");
      spec.engine.usePackedReplay = flag(in, "engine packed");
      spec.engine.collapseTraceClasses = flag(in, "engine collapse");
    } else if (key == "states") {
      spec.options.numStates = number<int>(in, "states");
    } else if (key == "seed") {
      spec.options.seed = number<std::uint64_t>(in, "seed");
    } else if (key == "warm-addr-space") {
      spec.options.warmAddrSpace = number<std::int64_t>(in, "warm-addr-space");
    } else if (key == "data-geom") {
      spec.options.dataGeom = getGeom(in, key);
    } else if (key == "data-timing") {
      spec.options.dataTiming = getTiming(in, key);
    } else if (key == "instr-geom") {
      spec.options.instrGeom = getGeom(in, key);
    } else if (key == "instr-timing") {
      spec.options.instrTiming = getTiming(in, key);
    } else if (key == "inorder") {
      auto& c = spec.options.inorder;
      c.aluLatency = number<Cycles>(in, "inorder aluLatency");
      c.mulLatency = number<Cycles>(in, "inorder mulLatency");
      c.constantDiv = flag(in, "inorder constantDiv");
      c.controlLatency = number<Cycles>(in, "inorder controlLatency");
      c.takenPenalty = number<Cycles>(in, "inorder takenPenalty");
      c.mispredictPenalty = number<Cycles>(in, "inorder mispredictPenalty");
    } else if (key == "ooo") {
      auto& c = spec.options.ooo;
      c.aluLatency = number<Cycles>(in, "ooo aluLatency");
      c.mulLatency = number<Cycles>(in, "ooo mulLatency");
      c.constantDiv = flag(in, "ooo constantDiv");
      c.controlLatency = number<Cycles>(in, "ooo controlLatency");
      c.takenRedirect = number<Cycles>(in, "ooo takenRedirect");
      c.dispatchWidth = number<int>(in, "ooo dispatchWidth");
    } else if (key == "pret") {
      spec.options.pret.numThreads = number<int>(in, "pret numThreads");
    } else if (key == "smt") {
      auto& c = spec.options.smt;
      const auto policy = number<int>(in, "smt policy");
      if (policy != 0 && policy != 1) badSpec("unknown smt policy");
      c.policy = static_cast<pipeline::SmtPolicy>(policy);
      c.aluLatency = number<Cycles>(in, "smt aluLatency");
      c.mulLatency = number<Cycles>(in, "smt mulLatency");
      c.memLatency = number<Cycles>(in, "smt memLatency");
      c.controlLatency = number<Cycles>(in, "smt controlLatency");
      c.constantDiv = flag(in, "smt constantDiv");
    } else if (key == "scratchpad-latency") {
      spec.options.scratchpadLatency = number<Cycles>(in, key);
    } else {
      badSpec("unknown field '" + key + "'");
    }
  }
  std::string trailing;
  if (in >> trailing) badSpec("trailing content after 'end'");
  for (const char* required : {"platform", "workload", "q", "i"}) {
    if (seen.count(required) == 0) {
      badSpec(std::string("missing required field '") + required + "'");
    }
  }
  return spec;
}

std::vector<ShardSpec> planShards(const ShardSpec& whole, std::size_t count) {
  if (whole.qBegin >= whole.qEnd || whole.iBegin >= whole.iEnd) {
    badSpec("planShards over an empty grid rectangle");
  }
  const std::size_t nQ = whole.qEnd - whole.qBegin;
  const std::size_t nI = whole.iEnd - whole.iBegin;
  const std::size_t cells = nQ * nI;
  count = std::max<std::size_t>(1, std::min(count, cells));

  std::vector<ShardSpec> out;
  out.reserve(count);
  if (count <= nQ) {
    // Contiguous state bands over the full input range.
    for (std::size_t p = 0; p < count; ++p) {
      const auto [qb, qe] = slice(whole.qBegin, whole.qEnd, p, count);
      ShardSpec s = whole;
      s.qBegin = qb;
      s.qEnd = qe;
      out.push_back(std::move(s));
    }
    return out;
  }
  // More shards than states: every state is its own band, and the input
  // range of state r splits into chunks(r) pieces with sum(chunks) == count.
  // count <= cells guarantees chunks(r) <= nI.
  const std::size_t base = count / nQ;
  const std::size_t extra = count % nQ;
  for (std::size_t r = 0; r < nQ; ++r) {
    const std::size_t chunks = base + (r < extra ? 1 : 0);
    for (std::size_t p = 0; p < chunks; ++p) {
      const auto [ib, ie] = slice(whole.iBegin, whole.iEnd, p, chunks);
      ShardSpec s = whole;
      s.qBegin = whole.qBegin + r;
      s.qEnd = whole.qBegin + r + 1;
      s.iBegin = ib;
      s.iEnd = ie;
      out.push_back(std::move(s));
    }
  }
  return out;
}

std::string canonicalResultIdentity(const ShardSpec& spec) {
  // The engine block holds scheduling/evaluation-strategy knobs only
  // (threads, tile shape, packed replay, trace-class collapse) — none of
  // them change a single result byte, so all normalize to defaults.  The
  // PLATFORM/WORKLOAD half of the spec, by contrast, is identity-bearing in
  // full: workload registry names are deterministic factories, so a name
  // pins the program (code AND MemoryLayout — programFingerprint covers all
  // four layout fields) and the input set; PlatformOptions are serialized
  // field-for-field above.  A change to any effective MemoryLayout can only
  // come from a different workload name or registry code change — the
  // latter is what kCodeVersionSalt (grid/fingerprint.h) invalidates.
  ShardSpec canonical = spec;
  canonical.engine = EngineConfig{};  // scheduling knobs never change bytes
  return serializeShardSpec(canonical);
}

std::string shardLabel(const ShardSpec& spec) {
  return "q[" + std::to_string(spec.qBegin) + "," +
         std::to_string(spec.qEnd) + ")xi[" + std::to_string(spec.iBegin) +
         "," + std::to_string(spec.iEnd) + ")";
}

core::StreamingMeasures evaluateShard(ExperimentEngine& engine,
                                      const ShardSpec& spec,
                                      const isa::Program& program,
                                      const std::vector<isa::Input>& inputs,
                                      const PlatformRegistry& platforms,
                                      obs::RunReport* report) {
  const auto start = std::chrono::steady_clock::now();
  const obs::RunReport before =
      report != nullptr ? engine.report() : obs::RunReport{};
  const auto model =
      engine.model(platforms, spec.platform, program, spec.options);
  auto acc = engine.reduceCellsRange(*model, program, inputs, spec.qBegin,
                                     spec.qEnd, spec.iBegin, spec.iEnd);
  if (report != nullptr) {
    const auto wall = std::chrono::steady_clock::now() - start;
    *report = engine.report().deltaSince(before);
    report->platform = spec.platform;
    report->workload = spec.workload;
    report->wallNs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(wall).count());
    obs::ShardStat self;
    self.label = shardLabel(spec);
    self.wallNs = report->wallNs;
    self.cells = (spec.qEnd - spec.qBegin) * (spec.iEnd - spec.iBegin);
    self.traceHits = report->counter("trace_store.hits");
    self.traceMisses = report->counter("trace_store.misses");
    report->shards.assign(1, std::move(self));
  }
  return acc;
}

core::StreamingMeasures evaluateShard(const ShardSpec& spec,
                                      const isa::Program& program,
                                      const std::vector<isa::Input>& inputs,
                                      const PlatformRegistry& platforms,
                                      obs::RunReport* report) {
  ExperimentEngine engine(spec.engine);
  return evaluateShard(engine, spec, program, inputs, platforms, report);
}

}  // namespace pred::exp
