// grid_server.cpp — pred-grid-server: the multi-host grid service daemon.
//
// A thin argv shell over grid::GridServer (src/grid/server.h): parse
// flags, bind, print the resolved endpoint (scripts wait for that line),
// serve until a client sends Shutdown.  Two fleet shapes:
//
//   subprocess (default)   N persistent `pred-shard-worker attach -`
//                          children, each on a socketpair, speaking the
//                          same salt-checked worker conversation as a
//                          remote worker; worker death is detected and
//                          survived (scheduler retry + respawn)
//   --in-process           in-process evaluator threads — no fork, handy
//                          for quick local use and debugging
//
// Either shape also accepts REMOTE workers dialing in with
// `pred-shard-worker attach ENDPOINT` (on the main endpoint, or on a
// dedicated --worker-listen endpoint); --workers 0 runs attach-only,
// where every shard waits for dialed-in workers.
//
// --fault-plan arms named fault points (grid/faultpoint.h); the CI
// grid-smoke uses `worker.exit:error`, which SIGKILLs the first child to
// receive a shard — the job must still complete byte-identically.

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/wire.h"
#include "grid/faultpoint.h"
#include "grid/server.h"
#include "study/distributed.h"

namespace {

using namespace pred;

int usage() {
  std::fprintf(
      stderr,
      "pred-grid-server — grid service daemon (framed jobs over a socket)\n"
      "\n"
      "  pred-grid-server --listen unix:PATH|tcp:HOST:PORT\n"
      "                   [--worker-listen unix:PATH|tcp:HOST:PORT]\n"
      "                                            dedicated endpoint for\n"
      "                                            pred-shard-worker attach\n"
      "                                            (workers may also attach\n"
      "                                            on the main endpoint)\n"
      "                   [--workers N]            fixed worker slots\n"
      "                                            (default 2; 0 = attach-\n"
      "                                            only)\n"
      "                   [--worker-cmd PATH]      worker binary (default:\n"
      "                                            pred-shard-worker beside\n"
      "                                            this binary)\n"
      "                   [--in-process]           threads, not subprocesses\n"
      "                   [--cache-entries N]      result cache size\n"
      "                   [--cache-dir PATH]       crash-safe cache journal;\n"
      "                                            a restart with the same\n"
      "                                            dir serves the same hits\n"
      "                   [--conn-timeout-ms N]    drop connections stalled\n"
      "                                            this long, and respawn\n"
      "                                            spawned workers that do\n"
      "                                            not say hello within it\n"
      "                                            (default 30000, 0 = never)\n"
      "                   [--max-attempts N]       per-shard retry budget\n"
      "                   [--retry-backoff-ms N]   base retry backoff\n"
      "                   [--shard-timeout-ms N]   per-shard kill timeout\n"
      "                   [--fault-plan PLAN]      arm named fault points,\n"
      "                                            e.g. \"net.write:after=3:\n"
      "                                            epipe;cache.journal:torn\"\n"
      "                                            or \"worker.exit:error\"\n"
      "\n"
      "Prints 'listening on <endpoint>' once ready; stops on a client\n"
      "Shutdown frame (pred-grid-client shutdown).\n");
  return 2;
}

template <typename T>
T flagNumber(const std::string& flag, const std::string& value) {
  std::istringstream in(value);
  const T v = core::wire::nextNumber<T>(in, "pred-grid-server", flag);
  std::string extra;
  if (in >> extra) {
    core::wire::fail("pred-grid-server",
                     "malformed " + flag + ": '" + value + "'");
  }
  return v;
}

/// pred-shard-worker in the same directory as this binary (falling back to
/// a bare name, i.e. PATH lookup, when argv[0] has no directory).
std::string defaultWorkerCmd(const char* argv0) {
  const std::string self(argv0 ? argv0 : "");
  const std::size_t slash = self.rfind('/');
  if (slash == std::string::npos) return "pred-shard-worker";
  return self.substr(0, slash + 1) + "pred-shard-worker";
}

}  // namespace

int main(int argc, char** argv) {
  std::string listen;
  std::string workerCmd;
  bool inProcess = false;
  grid::ServerConfig config;
  config.scheduler.workers = 2;
  std::string faultPlan;

  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  try {
    const auto value = [&](std::size_t& k) -> const std::string& {
      if (k + 1 >= args.size())
        throw std::invalid_argument("flag " + args[k] + " needs a value");
      return args[++k];
    };
    for (std::size_t k = 0; k < args.size(); ++k) {
      const std::string& a = args[k];
      if (a == "--listen") {
        listen = value(k);
      } else if (a == "--worker-listen") {
        config.workerEndpoint = value(k);
      } else if (a == "--workers") {
        config.scheduler.workers = flagNumber<int>(a, value(k));
      } else if (a == "--worker-cmd") {
        workerCmd = value(k);
      } else if (a == "--in-process") {
        inProcess = true;
      } else if (a == "--cache-entries") {
        config.cacheEntries = flagNumber<std::size_t>(a, value(k));
      } else if (a == "--cache-dir") {
        config.cacheDir = value(k);
      } else if (a == "--conn-timeout-ms") {
        config.connTimeoutMs = flagNumber<std::uint64_t>(a, value(k));
      } else if (a == "--fault-plan") {
        faultPlan = value(k);
      } else if (a == "--max-attempts") {
        config.scheduler.maxAttempts = flagNumber<int>(a, value(k));
      } else if (a == "--retry-backoff-ms") {
        config.scheduler.retryBackoffMs =
            flagNumber<std::uint64_t>(a, value(k));
      } else if (a == "--shard-timeout-ms") {
        config.scheduler.shardTimeoutMs =
            flagNumber<std::uint64_t>(a, value(k));
      } else {
        throw std::invalid_argument("unknown flag: " + a);
      }
    }
    if (listen.empty())
      throw std::invalid_argument("--listen is required");

    config.endpoint = listen;
    if (inProcess)
      config.eval = study::gridShardEvaluator();
    else if (config.scheduler.workers > 0)
      config.scheduler.workerCommand = {
          workerCmd.empty() ? defaultWorkerCmd(argv[0]) : workerCmd};

    // Arm the fault plan before the server exists so construction-time
    // paths (cache.load on journal recovery) are already covered.
    if (!faultPlan.empty()) grid::fault::armPlan(faultPlan);

    grid::GridServer server(std::move(config));
    std::printf("listening on %s\n", server.boundEndpointText().c_str());
    const std::string workerEp = server.boundWorkerEndpointText();
    if (!workerEp.empty())
      std::printf("workers on %s\n", workerEp.c_str());
    std::fflush(stdout);
    server.serveForever();
    std::fprintf(stderr, "pred-grid-server: shutdown requested, exiting\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pred-grid-server: error: %s\n", e.what());
    return 1;
  }
}
