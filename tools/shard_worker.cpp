// shard_worker.cpp — pred-shard-worker: the process-level grid shard
// executor (exp/shard.h made invocable).
//
// One binary, six subcommands, composing into the distribution pipeline
// that scripts/shard_run.sh drives end to end:
//
//   plan    instantiate a (platform, workload) grid, partition it into K
//           rectangular shards, write one ShardSpec file per shard
//   run     evaluate ONE spec (file or stdin) and emit the shard's
//           StreamingMeasures accumulator as text on stdout (or --out);
//           --report writes the shard's RunReport telemetry alongside
//   merge   fold shard accumulators back into one (order-independent;
//           smallest-index tie-breaks) and emit the merged accumulator
//   report  fold per-shard RunReports into the fleet telemetry view
//   single  the reference: the same grid through one in-process
//           reduceCells, emitted in the same format
//   attach  persistent worker mode: speak the worker conversation of
//           grid/protocol.h — handshake with this build's code-version
//           salt, then serve ShardAssign frames until the server hangs up
//           or sends Shutdown.  "attach tcp:HOST:PORT" (or unix:PATH)
//           DIALS a running pred-grid-server; "attach -" serves the
//           socket on stdin, which is how pred-grid-server runs its fixed
//           worker slots.  run and attach share one evaluator
//           (study::gridShardEvaluator, which keeps each evaluating
//           thread's last grid resident), so worker results are
//           byte-identical to run and single; --exit-after N injects a
//           deterministic mid-shard death for fault-tolerance smokes
//
// Determinism contract: merge(run(shard_1), ..., run(shard_K)) is
// byte-for-byte identical to single, for any K and any shard shape —
// the shard smoke (scripts/shard_run.sh --smoke, the CI shard-smoke job,
// and the ctest subprocess smoke) diffs exactly that.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/measures.h"
#include "core/wire.h"
#include "exp/engine.h"
#include "exp/platform.h"
#include "exp/shard.h"
#include "grid/attach_worker.h"
#include "obs/run_report.h"
#include "study/distributed.h"
#include "study/workloads.h"

namespace {

using namespace pred;

int usage() {
  std::fprintf(
      stderr,
      "pred-shard-worker — evaluate, plan, and merge Q x I grid shards\n"
      "\n"
      "  pred-shard-worker plan --platform P --workload W --shards K\n"
      "                         --out-dir DIR [--states N] [--threads T]\n"
      "                         [--interpreted]\n"
      "      partition the full P x W grid into K shard spec files\n"
      "      (DIR/shard-<k>.spec); prints one file path per line\n"
      "\n"
      "  pred-shard-worker run SPECFILE|- [--out FILE] [--report FILE]\n"
      "      evaluate one shard spec ('-' reads the spec from stdin) and\n"
      "      emit its StreamingMeasures accumulator; --report additionally\n"
      "      writes the shard's RunReport telemetry (wall time, counters,\n"
      "      phase timings, trace-cache stats) next to it — the accumulator\n"
      "      output is byte-identical either way\n"
      "\n"
      "  pred-shard-worker merge FILE...\n"
      "      merge shard accumulators (any order) into one\n"
      "\n"
      "  pred-shard-worker report FILE... [--json]\n"
      "      fold per-shard RunReports (from run --report) into the fleet\n"
      "      view — per-shard wall/cells/hit-rate rows, slowest shard, wall\n"
      "      skew — as human text (default) or JSON\n"
      "\n"
      "  pred-shard-worker single --platform P --workload W [--states N]\n"
      "                           [--threads T] [--interpreted]\n"
      "      the single-process reference for the same grid\n"
      "\n"
      "  pred-shard-worker attach ENDPOINT|- [--concurrency N]\n"
      "                           [--heartbeat-ms N] [--exit-after N]\n"
      "                           [--salt S]\n"
      "      serve shards for pred-grid-server: dial its ENDPOINT\n"
      "      (tcp:HOST:PORT or unix:PATH), or with '-' use the socket on\n"
      "      stdin (how the server runs its own worker slots);\n"
      "      --concurrency N evaluates N shards at once, --exit-after N\n"
      "      dies on assignment N+1 (fault injection), --salt overrides\n"
      "      the handshake salt (rejection tests)\n");
  return 2;
}

std::string readWholeStream(std::istream& in) {
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string readSpecInput(const std::string& pathOrDash) {
  if (pathOrDash == "-") return readWholeStream(std::cin);
  std::ifstream f(pathOrDash);
  if (!f) {
    throw std::invalid_argument("cannot open spec file: " + pathOrDash);
  }
  return readWholeStream(f);
}

void writeOutput(const std::string& outPath, const std::string& text) {
  if (outPath.empty()) {
    std::fputs(text.c_str(), stdout);
    return;
  }
  std::ofstream f(outPath);
  if (!(f << text) || !(f.flush())) {
    throw std::runtime_error("cannot write output file: " + outPath);
  }
}

/// Shared flag surface of the grid-defining subcommands (plan, single).
struct GridArgs {
  std::string platform;
  std::string workload;
  int states = exp::PlatformOptions{}.numStates;
  int threads = 0;
  bool interpreted = false;
  std::size_t shards = 0;   // plan only
  std::string outDir;       // plan only
};

std::string flagValue(const std::vector<std::string>& args, std::size_t& k) {
  if (k + 1 >= args.size()) {
    throw std::invalid_argument("flag " + args[k] + " needs a value");
  }
  return args[++k];
}

/// Strict numeric flag: same full-token parsing contract as the wire
/// formats ("--states 64x" is an error, not a 64).
template <typename T>
T flagNumber(const std::string& flag, const std::string& value) {
  std::istringstream in(value);
  const T v = core::wire::nextNumber<T>(in, "pred-shard-worker", flag);
  std::string extra;
  if (in >> extra) {
    core::wire::fail("pred-shard-worker",
                     "malformed " + flag + ": '" + value + "'");
  }
  return v;
}

GridArgs parseGridArgs(const std::vector<std::string>& args, bool wantPlan) {
  GridArgs g;
  for (std::size_t k = 0; k < args.size(); ++k) {
    const std::string& a = args[k];
    if (a == "--platform") {
      g.platform = flagValue(args, k);
    } else if (a == "--workload") {
      g.workload = flagValue(args, k);
    } else if (a == "--states") {
      g.states = flagNumber<int>(a, flagValue(args, k));
    } else if (a == "--threads") {
      g.threads = flagNumber<int>(a, flagValue(args, k));
    } else if (a == "--interpreted") {
      g.interpreted = true;
    } else if (wantPlan && a == "--shards") {
      g.shards = flagNumber<std::size_t>(a, flagValue(args, k));
    } else if (wantPlan && a == "--out-dir") {
      g.outDir = flagValue(args, k);
    } else {
      throw std::invalid_argument("unknown flag: " + a);
    }
  }
  if (g.platform.empty() || g.workload.empty()) {
    throw std::invalid_argument("--platform and --workload are required");
  }
  if (wantPlan && (g.shards == 0 || g.outDir.empty())) {
    throw std::invalid_argument("--shards and --out-dir are required");
  }
  return g;
}

/// The whole-grid ShardSpec of a (platform, workload) pair: full q/i
/// ranges from the instantiated axes.
exp::ShardSpec wholeGridSpec(const GridArgs& g) {
  exp::ShardSpec whole;
  whole.platform = g.platform;
  whole.workload = g.workload;
  whole.options.numStates = g.states;
  whole.engine.threads = g.threads;
  whole.engine.usePackedReplay = !g.interpreted;
  const auto w = study::WorkloadRegistry::instance().make(g.workload);
  const auto model = exp::PlatformRegistry::instance().make(
      g.platform, w.program, whole.options);
  whole.qEnd = model->numStates();
  whole.iEnd = w.inputs.size();
  return whole;
}

int cmdPlan(const std::vector<std::string>& args) {
  const GridArgs g = parseGridArgs(args, /*wantPlan=*/true);
  const auto plan = exp::planShards(wholeGridSpec(g), g.shards);
  for (std::size_t k = 0; k < plan.size(); ++k) {
    char name[32];
    std::snprintf(name, sizeof name, "shard-%03zu.spec", k);
    const std::string path = g.outDir + "/" + name;
    std::ofstream f(path);
    if (!(f << exp::serializeShardSpec(plan[k])) || !(f.flush())) {
      throw std::runtime_error("cannot write spec file: " + path);
    }
    std::printf("%s\n", path.c_str());
  }
  return 0;
}

int cmdRun(const std::vector<std::string>& args) {
  if (args.empty()) throw std::invalid_argument("run needs a spec file");
  std::string outPath;
  std::string reportPath;
  const std::string& specPath = args[0];
  for (std::size_t k = 1; k < args.size(); ++k) {
    if (args[k] == "--out") {
      if (k + 1 >= args.size()) {
        throw std::invalid_argument("--out needs a value");
      }
      outPath = args[++k];
    } else if (args[k] == "--report") {
      if (k + 1 >= args.size()) {
        throw std::invalid_argument("--report needs a value");
      }
      reportPath = args[++k];
    } else {
      throw std::invalid_argument("unknown flag: " + args[k]);
    }
  }
  const auto spec = exp::parseShardSpec(readSpecInput(specPath));
  const grid::ShardOutput out = study::gridShardEvaluator()(spec);
  // Accumulator first: the smoke's byte-identity diff must not depend on
  // whether telemetry was requested.
  writeOutput(outPath, out.accumulator.serialize());
  if (!reportPath.empty()) {
    std::ofstream f(reportPath);
    if (!(f << out.report.serialize()) || !(f.flush())) {
      throw std::runtime_error("cannot write report file: " + reportPath);
    }
  }
  return 0;
}

int cmdReport(const std::vector<std::string>& args) {
  bool json = false;
  std::vector<obs::RunReport> parts;
  for (const auto& a : args) {
    if (a == "--json") {
      json = true;
      continue;
    }
    std::ifstream f(a);
    if (!f) throw std::invalid_argument("cannot open report file: " + a);
    parts.push_back(obs::RunReport::deserialize(readWholeStream(f)));
  }
  if (parts.empty()) {
    throw std::invalid_argument("report needs at least one report file");
  }
  const auto fleet = obs::mergeFleet(parts);
  std::fputs((json ? fleet.json() + "\n" : fleet.text()).c_str(), stdout);
  return 0;
}

int cmdMerge(const std::vector<std::string>& args) {
  if (args.empty()) {
    throw std::invalid_argument("merge needs at least one accumulator file");
  }
  std::vector<core::StreamingMeasures> parts;
  parts.reserve(args.size());
  for (const auto& path : args) {
    std::ifstream f(path);
    if (!f) {
      throw std::invalid_argument("cannot open accumulator file: " + path);
    }
    parts.push_back(core::StreamingMeasures::deserialize(readWholeStream(f)));
  }
  const auto merged = exp::ExperimentEngine::mergeShards(std::move(parts));
  std::fputs(merged.serialize().c_str(), stdout);
  return 0;
}

int cmdSingle(const std::vector<std::string>& args) {
  const GridArgs g = parseGridArgs(args, /*wantPlan=*/false);
  const auto w = study::WorkloadRegistry::instance().make(g.workload);
  exp::PlatformOptions options;
  options.numStates = g.states;
  const auto model = exp::PlatformRegistry::instance().make(
      g.platform, w.program, options);
  exp::EngineConfig cfg;
  cfg.threads = g.threads;
  cfg.usePackedReplay = !g.interpreted;
  exp::ExperimentEngine engine(cfg);
  const auto acc = engine.reduceCells(*model, w.program, w.inputs);
  std::fputs(acc.serialize().c_str(), stdout);
  return 0;
}

int cmdAttach(const std::vector<std::string>& args) {
  if (args.empty() || args[0].empty() ||
      (args[0][0] == '-' && args[0] != "-")) {
    throw std::invalid_argument("attach needs an ENDPOINT or '-' first");
  }
  const std::string& endpoint = args[0];
  grid::AttachOptions options;
  for (std::size_t k = 1; k < args.size(); ++k) {
    if (args[k] == "--concurrency") {
      options.concurrency =
          flagNumber<std::size_t>(args[k], flagValue(args, k));
    } else if (args[k] == "--heartbeat-ms") {
      options.heartbeatMs =
          flagNumber<std::uint64_t>(args[k], flagValue(args, k));
    } else if (args[k] == "--exit-after") {
      options.exitAfter =
          flagNumber<std::size_t>(args[k], flagValue(args, k));
      options.haveExitAfter = true;
    } else if (args[k] == "--salt") {
      options.salt = flagValue(args, k);
    } else {
      throw std::invalid_argument("unknown flag: " + args[k]);
    }
  }
  // The evaluator `run` uses — byte-identity across modes hinges on
  // workers computing shards EXACTLY the same way.  Each evaluating thread
  // keeps its last grid resident.
  const grid::ShardEvalFn eval = study::gridShardEvaluator();
  if (endpoint == "-")
    return grid::runAttachWorker(grid::net::Fd(STDIN_FILENO), eval, options);
  return grid::runAttachWorker(endpoint, eval, options);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (cmd == "plan") return cmdPlan(args);
    if (cmd == "run") return cmdRun(args);
    if (cmd == "merge") return cmdMerge(args);
    if (cmd == "report") return cmdReport(args);
    if (cmd == "single") return cmdSingle(args);
    if (cmd == "attach") return cmdAttach(args);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pred-shard-worker %s: error: %s\n", cmd.c_str(),
                 e.what());
    return 1;
  }
}
