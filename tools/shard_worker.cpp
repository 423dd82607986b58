// shard_worker.cpp — pred-shard-worker: the grid worker binary.
//
// Two subcommands:
//
//   single  the reference: one (platform, workload) grid through one
//           in-process reduceCells, its StreamingMeasures accumulator
//           emitted as text on stdout — the bytes every grid smoke diffs
//           the server's merged result against
//   attach  persistent worker mode: speak the worker conversation of
//           grid/protocol.h — handshake with this build's code-version
//           salt, then serve ShardAssign frames until the server hangs up
//           or sends Shutdown.  "attach tcp:HOST:PORT" (or unix:PATH)
//           DIALS a running pred-grid-server; "attach -" serves the
//           socket on stdin, which is how pred-grid-server runs its fixed
//           worker slots.  Shards are evaluated by
//           study::gridShardEvaluator, which keeps each evaluating
//           thread's last grid resident; --exit-after N injects a
//           deterministic mid-shard death for fault-tolerance smokes
//
// Determinism contract: whatever the shard count, the worker fleet and the
// faults along the way, a job pred-grid-server merges from attach workers
// is byte-for-byte identical to single — scripts/grid_run.sh (the
// grid_*_smoke ctests and the CI grid-smoke and chaos-smoke jobs) diffs
// exactly that.

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/measures.h"
#include "core/wire.h"
#include "exp/engine.h"
#include "exp/platform.h"
#include "grid/attach_worker.h"
#include "study/distributed.h"
#include "study/workloads.h"

namespace {

using namespace pred;

int usage() {
  std::fprintf(
      stderr,
      "pred-shard-worker — the grid worker and its reference\n"
      "\n"
      "  pred-shard-worker single --platform P --workload W [--states N]\n"
      "                           [--threads T] [--interpreted]\n"
      "      the single-process reference: the whole P x W grid through\n"
      "      one in-process reduceCells, its accumulator on stdout\n"
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

/// The flags of `single`: which grid, and the engine that walks it.
struct GridArgs {
  std::string platform;
  std::string workload;
  int states = exp::PlatformOptions{}.numStates;
  int threads = 0;
  bool interpreted = false;
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

GridArgs parseGridArgs(const std::vector<std::string>& args) {
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
    } else {
      throw std::invalid_argument("unknown flag: " + a);
    }
  }
  if (g.platform.empty() || g.workload.empty()) {
    throw std::invalid_argument("--platform and --workload are required");
  }
  return g;
}

int cmdSingle(const std::vector<std::string>& args) {
  const GridArgs g = parseGridArgs(args);
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
  // The one shard evaluator every grid worker runs; each evaluating thread
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
    if (cmd == "single") return cmdSingle(args);
    if (cmd == "attach") return cmdAttach(args);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pred-shard-worker %s: error: %s\n", cmd.c_str(),
                 e.what());
    return 1;
  }
}
