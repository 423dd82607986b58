// grid_client.cpp — pred-grid-client: the thin client for pred-grid-server.
//
// Three subcommands over grid::GridClient (src/grid/client.h):
//
//   submit    build the whole-grid ShardSpec of a (platform, workload)
//             pair — the grid `pred-shard-worker single` evaluates — ship
//             it, and print the merged accumulator bytes on stdout (or
//             --out).  stdout carries ONLY the accumulator, so smokes can
//             diff it byte-for-byte against `pred-shard-worker single`;
//             provenance (fingerprint, cache-hit flag) goes to stderr.
//   stats     fetch and print the server's RunReport (text or --json)
//   shutdown  stop the server's accept loop
//
// All subcommands take --timeout SECS (default 300, 0 = wait forever)
// bounding the connect and every frame read/write, so a wedged or
// black-holed server cannot hang a pipeline.
//
// Exit codes: 0 success; 1 any server/connection error (server-side
// Error frame, refused connect, malformed reply); 2 usage; 3 deadline
// exceeded — scripts can tell "the server said no" from "the server
// never answered".

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/wire.h"
#include "exp/platform.h"
#include "exp/shard.h"
#include "grid/client.h"
#include "study/workloads.h"

namespace {

using namespace pred;

int usage() {
  std::fprintf(
      stderr,
      "pred-grid-client — submit predictability grid jobs to a server\n"
      "\n"
      "  pred-grid-client submit --connect EP --platform P --workload W\n"
      "                          [--states N] [--shards K] [--threads T]\n"
      "                          [--interpreted] [--no-cache] [--out FILE]\n"
      "                          [--timeout SECS]\n"
      "      evaluate the whole P x W grid on the server, split K ways\n"
      "      (default 1); accumulator bytes on stdout/--out, fingerprint\n"
      "      and cache-hit provenance on stderr\n"
      "\n"
      "  pred-grid-client stats --connect EP [--json] [--timeout SECS]\n"
      "      the server's telemetry report (grid.* counters, last fleet)\n"
      "\n"
      "  pred-grid-client shutdown --connect EP [--timeout SECS]\n"
      "      stop the server\n"
      "\n"
      "EP is unix:PATH or tcp:HOST:PORT.  --timeout SECS (default 300,\n"
      "0 = wait forever) bounds the connect and each frame exchange; a\n"
      "deadline exceeded exits 3 (1 = server/connection error, 2 = usage).\n");
  return 2;
}

std::string flagValue(const std::vector<std::string>& args, std::size_t& k) {
  if (k + 1 >= args.size())
    throw std::invalid_argument("flag " + args[k] + " needs a value");
  return args[++k];
}

template <typename T>
T flagNumber(const std::string& flag, const std::string& value) {
  std::istringstream in(value);
  const T v = core::wire::nextNumber<T>(in, "pred-grid-client", flag);
  std::string extra;
  if (in >> extra) {
    core::wire::fail("pred-grid-client",
                     "malformed " + flag + ": '" + value + "'");
  }
  return v;
}

/// Default deadline: generous enough for a real grid evaluation, finite
/// enough that a wedged server can't hang a pipeline forever.
constexpr std::uint64_t kDefaultTimeoutSecs = 300;

grid::ClientOptions clientOptions(std::uint64_t timeoutSecs) {
  grid::ClientOptions opts;
  if (timeoutSecs > 0) {
    const std::uint64_t capped = std::min<std::uint64_t>(
        timeoutSecs, 86'400);  // a day: beyond that, just say 0
    opts.connectTimeoutMs = static_cast<int>(capped * 1000);
    opts.ioTimeoutMs = static_cast<int>(capped * 1000);
  }
  return opts;
}

int cmdSubmit(const std::vector<std::string>& args) {
  std::string connect, platform, workload, outPath;
  int states = exp::PlatformOptions{}.numStates;
  int threads = 0;
  bool interpreted = false;
  std::size_t shards = 1;
  bool useCache = true;
  std::uint64_t timeoutSecs = kDefaultTimeoutSecs;
  for (std::size_t k = 0; k < args.size(); ++k) {
    const std::string& a = args[k];
    if (a == "--connect") {
      connect = flagValue(args, k);
    } else if (a == "--platform") {
      platform = flagValue(args, k);
    } else if (a == "--workload") {
      workload = flagValue(args, k);
    } else if (a == "--states") {
      states = flagNumber<int>(a, flagValue(args, k));
    } else if (a == "--shards") {
      shards = flagNumber<std::size_t>(a, flagValue(args, k));
    } else if (a == "--threads") {
      threads = flagNumber<int>(a, flagValue(args, k));
    } else if (a == "--interpreted") {
      interpreted = true;
    } else if (a == "--no-cache") {
      useCache = false;
    } else if (a == "--out") {
      outPath = flagValue(args, k);
    } else if (a == "--timeout") {
      timeoutSecs = flagNumber<std::uint64_t>(a, flagValue(args, k));
    } else {
      throw std::invalid_argument("unknown flag: " + a);
    }
  }
  if (connect.empty() || platform.empty() || workload.empty())
    throw std::invalid_argument(
        "--connect, --platform, and --workload are required");

  // The whole grid `pred-shard-worker single` reduces: |Q| from the model
  // preset, |I| from the workload.
  exp::ShardSpec whole;
  whole.platform = platform;
  whole.workload = workload;
  whole.options.numStates = states;
  whole.engine.threads = threads;
  whole.engine.usePackedReplay = !interpreted;
  const auto w = study::WorkloadRegistry::instance().make(workload);
  const auto model =
      exp::PlatformRegistry::instance().make(platform, w.program,
                                             whole.options);
  whole.qEnd = model->numStates();
  whole.iEnd = w.inputs.size();

  grid::GridClient client(connect, clientOptions(timeoutSecs));
  const grid::JobResult result = client.submit(whole, shards, useCache);
  std::fprintf(stderr, "fingerprint %s\ncache-hit %d\n",
               result.fingerprint.c_str(), result.cacheHit ? 1 : 0);
  if (outPath.empty()) {
    std::fputs(result.accumulatorText.c_str(), stdout);
  } else {
    std::ofstream f(outPath);
    if (!(f << result.accumulatorText) || !(f.flush()))
      throw std::runtime_error("cannot write output file: " + outPath);
  }
  return 0;
}

int cmdStats(const std::vector<std::string>& args) {
  std::string connect;
  bool json = false;
  std::uint64_t timeoutSecs = kDefaultTimeoutSecs;
  for (std::size_t k = 0; k < args.size(); ++k) {
    if (args[k] == "--connect") {
      connect = flagValue(args, k);
    } else if (args[k] == "--json") {
      json = true;
    } else if (args[k] == "--timeout") {
      timeoutSecs = flagNumber<std::uint64_t>(args[k], flagValue(args, k));
    } else {
      throw std::invalid_argument("unknown flag: " + args[k]);
    }
  }
  if (connect.empty()) throw std::invalid_argument("--connect is required");
  grid::GridClient client(connect, clientOptions(timeoutSecs));
  const obs::RunReport report = client.stats();
  std::fputs((json ? report.json() + "\n" : report.text()).c_str(), stdout);
  return 0;
}

int cmdShutdown(const std::vector<std::string>& args) {
  std::string connect;
  std::uint64_t timeoutSecs = kDefaultTimeoutSecs;
  for (std::size_t k = 0; k < args.size(); ++k) {
    if (args[k] == "--connect") {
      connect = flagValue(args, k);
    } else if (args[k] == "--timeout") {
      timeoutSecs = flagNumber<std::uint64_t>(args[k], flagValue(args, k));
    } else {
      throw std::invalid_argument("unknown flag: " + args[k]);
    }
  }
  if (connect.empty()) throw std::invalid_argument("--connect is required");
  grid::GridClient client(connect, clientOptions(timeoutSecs));
  client.shutdownServer();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (cmd == "submit") return cmdSubmit(args);
    if (cmd == "stats") return cmdStats(args);
    if (cmd == "shutdown") return cmdShutdown(args);
    return usage();
  } catch (const pred::grid::net::TimeoutError& e) {
    // A distinct exit code for "the server never answered in time" so
    // scripts can retry/escalate differently from a hard error.
    std::fprintf(stderr, "pred-grid-client %s: timeout: %s\n", cmd.c_str(),
                 e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pred-grid-client %s: error: %s\n", cmd.c_str(),
                 e.what());
    return 1;
  }
}
