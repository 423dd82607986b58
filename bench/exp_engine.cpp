// exp_engine.cpp — Experiment-engine performance: naive serial vs memoized
// (interpreted) vs packed-replay computation of the Q x I timing matrix.
//
// The naive path is what the seed's hand-wired benches effectively did: the
// functional core re-runs for EVERY matrix cell even though the trace
// depends on the input alone.  The engine removes that redundancy (one
// trace per input, replayed across all q), tiles the cross product over the
// shared worker pool, and — since the replay-kernel layer — lowers each
// trace into a flat ReplayProgram replayed against packed cache snapshots,
// making the per-cell loop allocation-free.  The header section verifies
// the acceptance properties (parallel == serial, packed == interpreted,
// bit-identical) and times a 64 x 64 exhaustive grid through all three
// paths — plus the grid scheduler, attached workers, trace-class collapse,
// a cold trace-store resolve and the state-axis collapse — emitting the
// machine-readable BENCH_exhaustive.json artifact ($BENCH_JSON overrides
// the output path) that scripts/bench_run.sh and the CI perf-smoke job
// consume.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/definitions.h"
#include "exp/engine.h"
#include "exp/platform.h"
#include "exp/shard.h"
#include "grid/attach_worker.h"
#include "grid/client.h"
#include "grid/scheduler.h"
#include "grid/server.h"
#include "obs/span.h"
#include "study/distributed.h"
#include "study/scenario.h"
#include "study/workloads.h"
#include "isa/ast.h"
#include "isa/workloads.h"

namespace {

using namespace pred;

constexpr int kGridStates = 16;
constexpr int kGridInputs = 16;

isa::Program gridProgram() {
  return isa::ast::compileBranchy(isa::workloads::linearSearch(16));
}

std::vector<isa::Input> gridInputs(const isa::Program& prog, int howMany) {
  auto inputs =
      isa::workloads::randomArrayInputs(prog, "a", 16, howMany, 2024);
  for (auto& in : inputs) {
    in = isa::mergeInputs(in, isa::varInput(prog, "key", 7));
  }
  return inputs;
}

exp::PlatformOptions gridOptions() {
  exp::PlatformOptions opts;
  opts.numStates = kGridStates;
  return opts;
}

/// The pre-engine shape: TimingMatrix::compute over a TimingFunction that
/// re-runs the functional core per cell.
core::TimingMatrix naiveSerialMatrix(const exp::TimingModel& model,
                                     const isa::Program& prog,
                                     const std::vector<isa::Input>& inputs) {
  const core::TimingFunction fn = [&](std::size_t q, std::size_t i) {
    const auto run = isa::FunctionalCore::run(prog, inputs[i]);
    return model.time(q, run.trace);
  };
  return core::TimingMatrix::compute(fn, model.numStates(), inputs.size());
}

/// Best-of-`reps` wall nanoseconds of fn() — the one timing protocol every
/// path of the perf grid is measured with, so the recorded ratios compare
/// like with like.
template <typename Fn>
double bestOfNs(int reps, const Fn& fn) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
    if (r == 0 || ns < best) best = ns;
  }
  return best;
}

/// Best-of-`reps` wall time of one exhaustive matrix computation, in
/// nanoseconds per cell.  Traces are pre-warmed into the engine's store so
/// the measurement isolates the replay loop (the quantity the replay-kernel
/// layer optimizes).
double nsPerCell(exp::ExperimentEngine& engine, const exp::TimingModel& model,
                 const isa::Program& prog,
                 const std::vector<isa::Input>& inputs, int reps) {
  engine.computeMatrix(model, prog, inputs);  // warm traces + compiled forms
  const double best = bestOfNs(reps, [&] {
    benchmark::DoNotOptimize(engine.computeMatrix(model, prog, inputs).wcet());
  });
  return best / static_cast<double>(model.numStates() * inputs.size());
}

/// One perf grid's worth of JSON (the value under "grids": {...}).
struct GridReport {
  bool identical = false;
  std::string json;
};

/// Times a 64 x 64 exhaustive matrix on one platform through the naive,
/// interpreted-replay, and packed-replay paths — asserted cell-for-cell
/// identical, timed, and rendered as one JSON grid object.
GridReport perfGridFor(const std::string& platform,
                       const cache::CacheGeometry& dataGeom, int reps) {
  constexpr int kStates = 64;
  constexpr int kInputs = 64;
  bench::printHeader("Replay kernels: " + platform,
                     "64 x 64 exhaustive grid: naive vs interpreted vs packed");
  const auto prog = gridProgram();
  const auto inputs = gridInputs(prog, kInputs);
  exp::PlatformOptions opts;
  opts.numStates = kStates;
  opts.dataGeom = dataGeom;
  const auto model = exp::PlatformRegistry::instance().make(platform, prog,
                                                            opts);

  exp::EngineConfig interpCfg;
  interpCfg.usePackedReplay = false;
  exp::EngineConfig packedCfg;
  exp::ExperimentEngine interp(interpCfg);
  exp::ExperimentEngine packed(packedCfg);

  bench::printKV("supports packed replay",
                 model->supportsPackedReplay() ? "yes" : "NO (BUG)");
  const auto mNaive = naiveSerialMatrix(*model, prog, inputs);
  const auto mInterp = interp.computeMatrix(*model, prog, inputs);
  const auto mPacked = packed.computeMatrix(*model, prog, inputs);
  const bool identical = mNaive == mInterp && mInterp == mPacked;
  bench::printKV("packed == interpreted == naive (bit-identical)",
                 identical ? "yes" : "NO (BUG)");

  const double naiveNs =
      bestOfNs(reps,
               [&] {
                 benchmark::DoNotOptimize(
                     naiveSerialMatrix(*model, prog, inputs).wcet());
               }) /
      (kStates * kInputs);
  const double interpNs = nsPerCell(interp, *model, prog, inputs, reps);
  // Per-phase breakdown of exactly the timed packed reps: the engine's
  // cumulative report delta over the measurement window.
  const auto packedBefore = packed.report();
  const double packedNs = nsPerCell(packed, *model, prog, inputs, reps);
  const auto packedPhases = packed.report().deltaSince(packedBefore).phases;

  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f", naiveNs);
  bench::printKV("naive serial ns/cell", buf);
  std::snprintf(buf, sizeof buf, "%.1f", interpNs);
  bench::printKV("memoized interpreted ns/cell (pre-kernel path)", buf);
  std::snprintf(buf, sizeof buf, "%.1f", packedNs);
  bench::printKV("packed replay ns/cell", buf);
  std::snprintf(buf, sizeof buf, "%.2fx", interpNs / packedNs);
  bench::printKV("speedup packed vs interpreted", buf);
  std::snprintf(buf, sizeof buf, "%.2fx", naiveNs / packedNs);
  bench::printKV("speedup packed vs naive", buf);

  bench::JsonObject grid;
  grid.field("states", kStates).field("inputs", kInputs);
  bench::JsonObject geom;
  geom.field("line_words", static_cast<int>(dataGeom.lineWords))
      .field("sets", static_cast<int>(dataGeom.numSets))
      .field("ways", dataGeom.ways);
  bench::JsonObject cells;
  cells.field("naive", naiveNs)
      .field("interpreted", interpNs)
      .field("packed", packedNs);
  bench::JsonObject speedup;
  speedup.field("packed_vs_interpreted", interpNs / packedNs)
      .field("packed_vs_naive", naiveNs / packedNs);
  // Phase totals over the packed measurement window (warm-up + timed
  // reps), from the obs layer: where the wall time of this grid actually
  // went.  Span counts let trend tooling normalize per rep.
  bench::JsonObject phases;
  for (const auto& [name, st] : packedPhases) {
    bench::JsonObject p;
    p.field("spans", st.count)
        .field("total_ns", st.totalNs)
        .field("max_ns", st.maxNs);
    phases.rawField(name, p.str());
  }
  bench::JsonObject obj;
  obj.field("workload", std::string("linearSearch-16"))
      .rawField("grid", grid.str())
      .rawField("data_geom", geom.str())
      .rawField("bit_identical", identical ? "true" : "false")
      .rawField("ns_per_cell", cells.str())
      .rawField("speedup", speedup.str())
      // Trace-equivalence stats: classes among this grid's 64 inputs (the
      // store assigns class ids as it fills, collapse on or off), and how
      // many cell evaluations the engine actually skipped here (zero on
      // the matrix path — computeMatrix never collapses; the streaming
      // "collapse" grid below is where this is non-zero).
      .field("trace_classes",
             static_cast<std::uint64_t>(packed.traceStore().classCount()))
      .field("cells_collapsed",
             packed.metrics().counter("engine.cells_collapsed").value())
      .rawField("phases", phases.str());
  return GridReport{identical, obj.str()};
}

/// Trace-class collapse on the duplicate-heavy grid: the registry's
/// linearsearch-16x64-dup preset (16 base arrays x 4 trace-equal variants
/// = 64 inputs, <= 16 trace classes) streamed through reduceCells with
/// collapseTraceClasses off vs on.  Collapse times each class once per
/// state and fans the result out to every member, so ns/cell drops by
/// roughly inputs/classes while the accumulator stays bit-identical —
/// asserted here and gated again (witness-for-witness) by the
/// differential and shard tests.
std::string collapseGrid(bool* identical, int reps) {
  constexpr int kStates = 64;
  const std::string platform = "inorder-lru";
  const std::string workload = "linearsearch-16x64-dup";
  bench::printHeader("Trace-class collapse",
                     "64 x 64 duplicate-heavy grid: collapse off vs on");
  const auto w = study::WorkloadRegistry::instance().make(workload);
  exp::PlatformOptions opts;
  opts.numStates = kStates;
  const auto model =
      exp::PlatformRegistry::instance().make(platform, w.program, opts);

  exp::EngineConfig offCfg;
  offCfg.collapseTraceClasses = false;
  exp::ExperimentEngine off(offCfg);
  exp::ExperimentEngine on;  // defaults: packed replay + collapse, both on

  const auto accOff = off.reduceCells(*model, w.program, w.inputs);
  const auto before = on.metrics().counter("engine.cells_collapsed").value();
  const auto accOn = on.reduceCells(*model, w.program, w.inputs);
  const auto collapsedPerSweep =
      on.metrics().counter("engine.cells_collapsed").value() - before;
  const bool same = accOn.identicalTo(accOff);
  *identical = same;
  const auto classes = on.traceStore().classCount();
  bench::printKV("collapsed == uncollapsed (bit-identical)",
                 same ? "yes" : "NO (BUG)");
  bench::printKV("trace classes among 64 inputs", std::to_string(classes));

  const double cells =
      static_cast<double>(kStates) * static_cast<double>(w.inputs.size());
  const auto reduceNs = [&](exp::ExperimentEngine& e) {
    return bestOfNs(reps, [&] {
             benchmark::DoNotOptimize(
                 e.reduceCells(*model, w.program, w.inputs).wcet());
           }) /
           cells;
  };
  const double offNs = reduceNs(off);
  const double onNs = reduceNs(on);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f", offNs);
  bench::printKV("uncollapsed ns/cell", buf);
  std::snprintf(buf, sizeof buf, "%.1f", onNs);
  bench::printKV("collapsed ns/cell", buf);
  std::snprintf(buf, sizeof buf, "%.2fx", offNs / onNs);
  bench::printKV("speedup collapsed vs uncollapsed", buf);

  bench::JsonObject gridShape;
  gridShape.field("states", kStates)
      .field("inputs", static_cast<int>(w.inputs.size()));
  bench::JsonObject cellsNs;
  cellsNs.field("uncollapsed", offNs).field("collapsed", onNs);
  bench::JsonObject speedup;
  speedup.field("collapsed_vs_uncollapsed", offNs / onNs);
  bench::JsonObject obj;
  obj.field("workload", workload)
      .field("platform", platform)
      .rawField("grid", gridShape.str())
      .field("trace_classes", static_cast<std::uint64_t>(classes))
      .field("cells_collapsed_per_sweep", collapsedPerSweep)
      .rawField("bit_identical", same ? "true" : "false")
      .rawField("ns_per_cell", cellsNs.str())
      .rawField("speedup", speedup.str());
  return obj.str();
}

/// State-axis collapse: bubblesort-8 over 64 seeded arrays — the shape of
/// the warm scenario sweep's grids (the registry's bubblesort-8 has only 12
/// inputs) — at 256 states on inorder-lru (default 8 x 2 cache) and
/// ooo-fifo (64 x 4), streamed through reduceCells on a warm store.  Per
/// grid it records ns per grid cell (best of `reps`) and the model
/// evaluations one sweep runs (engine.cells_replayed), which
/// bench_run.sh --smoke gates as a count: without the state collapse every
/// (state, trace class) cell replays.  Each grid's accumulator is asserted
/// identical to the uncollapsed walk's.
std::string statesGrid(bool* identical, int reps) {
  constexpr int kStates = 256;
  constexpr int kInputs = 64;
  bench::printHeader("State-axis collapse",
                     "bubblesort-8 x 64 arrays at 256 states, warm store");
  const auto prog = isa::ast::compileBranchy(isa::workloads::bubbleSort(8));
  const auto inputs =
      isa::workloads::randomArrayInputs(prog, "a", 8, kInputs, 2024, 24);
  const double cells = static_cast<double>(kStates) * kInputs;
  bool allIdentical = true;
  bench::JsonObject grids;
  const std::pair<const char*, cache::CacheGeometry> platforms[] = {
      {"inorder-lru", exp::PlatformOptions{}.dataGeom},
      {"ooo-fifo", cache::CacheGeometry{4, 64, 4}}};
  for (const auto& [platform, geom] : platforms) {
    exp::PlatformOptions opts;
    opts.numStates = kStates;
    opts.dataGeom = geom;
    const auto model =
        exp::PlatformRegistry::instance().make(platform, prog, opts);
    exp::EngineConfig offCfg;
    offCfg.collapseTraceClasses = false;
    exp::ExperimentEngine off(offCfg);
    exp::ExperimentEngine on;
    const auto accOff = off.reduceCells(*model, prog, inputs);
    const auto before = on.report();
    const auto accOn = on.reduceCells(*model, prog, inputs);
    const auto sweep = on.report().deltaSince(before);
    const bool same = accOn.identicalTo(accOff);
    allIdentical = allIdentical && same;
    const double ns = bestOfNs(reps, [&] {
                        benchmark::DoNotOptimize(
                            on.reduceCells(*model, prog, inputs).wcet());
                      }) /
                      cells;
    const std::uint64_t replayed = sweep.counter("engine.cells_replayed");
    const std::uint64_t walked = sweep.counter("engine.cells");
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.1f", ns);
    bench::printKV(std::string(platform) + " ns per grid cell", buf);
    bench::printKV(std::string(platform) + " cells replayed / walked",
                   std::to_string(replayed) + " / " + std::to_string(walked));
    bench::printKV(std::string(platform) + " collapsed == uncollapsed",
                   same ? "yes" : "NO (BUG)");
    bench::JsonObject dataGeom;
    dataGeom.field("line_words", static_cast<int>(geom.lineWords))
        .field("sets", static_cast<int>(geom.numSets))
        .field("ways", geom.ways);
    bench::JsonObject grid;
    grid.rawField("data_geom", dataGeom.str())
        .rawField("bit_identical", same ? "true" : "false")
        .field("trace_classes", sweep.counter("engine.trace_classes"))
        .field("cells_walked", walked)
        .field("state_groups", sweep.counter("engine.state_groups"))
        .field("cells_replayed", replayed)
        .field("ns_per_cell", ns);
    grids.rawField(platform, grid.str());
  }
  *identical = allIdentical;
  bench::JsonObject shape;
  shape.field("states", kStates).field("inputs", kInputs);
  bench::JsonObject obj;
  obj.field("workload", std::string("bubblesort-8"))
      .rawField("grid", shape.str())
      .rawField("bit_identical", allIdentical ? "true" : "false")
      .rawField("grids", grids.str());
  return obj.str();
}

/// Cold resolve: what a trace-store miss costs end to end — functional run,
/// trace fingerprint, store key, class assignment and Streams lowering —
/// for the 64 inputs of the registry's linearsearch-16x64 workload, on a
/// fresh TraceStore per repetition, best of `reps`.  This is the whole cost
/// of a cold Query::run or grid shard before replay starts; the program is
/// hashed once per repetition, as the engine does once per walk item.
std::string resolveGrid(int reps) {
  const std::string workload = "linearsearch-16x64";
  bench::printHeader("Cold resolve",
                     "fresh TraceStore, 64 inputs, Streams form");
  const auto w = study::WorkloadRegistry::instance().make(workload);
  double best = 0;
  std::uint64_t misses = 0;
  std::size_t classes = 0;
  for (int r = 0; r < reps; ++r) {
    exp::TraceStore store;
    const double ns = bestOfNs(1, [&] {
      const exp::TraceStore::ProgramKey program(w.program);
      for (const auto& in : w.inputs) {
        benchmark::DoNotOptimize(store.entryRefFor(program, in).compiled);
      }
    });
    if (r == 0 || ns < best) best = ns;
    misses = store.misses();
    classes = store.classCount();
  }
  const double usPerInput =
      best / 1000.0 / static_cast<double>(w.inputs.size());
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.2f", usPerInput);
  bench::printKV("us per input (best of " + std::to_string(reps) + ")", buf);
  bench::printKV("misses / trace classes per repetition",
                 std::to_string(misses) + " / " + std::to_string(classes));

  bench::JsonObject obj;
  obj.field("workload", workload)
      .field("inputs", static_cast<int>(w.inputs.size()))
      .field("form", std::string("streams"))
      .field("misses", misses)
      .field("trace_classes", static_cast<std::uint64_t>(classes))
      .field("us_per_input", usPerInput);
  return obj.str();
}

/// Sharded-throughput grid: the work-stealing scheduler (src/grid/) runs
/// an 8-shard 64 x 64 grid at K ∈ {1, 2, 4, 8} stealing workers through
/// the registry-resolving evaluator — the same fan-out an in-process
/// pred-grid-server performs per job.  Reported as cells/sec so the JSON
/// trend records scheduler + per-shard setup overhead; each K's merged
/// bytes are asserted identical to a single-process reduceCells.  Every
/// run starts K fresh worker threads, and each keeps the grid it evaluated
/// last resident, so a job resolves each input at most once per thread:
/// trace_store_misses records, per K, the most inputs one job resolved
/// (summed over its shards by mergeFleet), which bench_run.sh --smoke
/// gates at K x |I|.  The gate is a count, so host load cannot make it
/// flaky; the cells/sec gate is a throughput FLOOR, not a scaling claim.
std::string shardedThroughputGrid(bool* identical) {
  constexpr int kStates = 64;
  constexpr std::size_t kShards = 8;
  const std::string platform = "inorder-lru";
  const std::string workload = "linearsearch-16x64";
  bench::printHeader("Grid scheduler: sharded throughput",
                     "8-shard 64 x 64 grid at K work-stealing workers");

  const auto w = study::WorkloadRegistry::instance().make(workload);
  exp::ShardSpec whole;
  whole.platform = platform;
  whole.workload = workload;
  whole.options.numStates = kStates;
  // One thread per shard engine: the scheduler's workers are the
  // parallelism axis here; nesting pools would just oversubscribe.
  whole.engine.threads = 1;
  const auto model =
      exp::PlatformRegistry::instance().make(platform, w.program,
                                             whole.options);
  whole.qEnd = model->numStates();
  whole.iEnd = w.inputs.size();
  const double cells =
      static_cast<double>(whole.qEnd) * static_cast<double>(whole.iEnd);

  exp::ExperimentEngine ref(exp::EngineConfig{1});
  const std::string refBytes =
      ref.reduceCells(*model, w.program, w.inputs).serialize();

  const auto eval = study::gridShardEvaluator();
  const auto plan = exp::planShards(whole, kShards);
  bool allIdentical = true;
  bench::JsonObject perK;
  bench::JsonObject missesPerK;
  char buf[64];
  for (const int k : {1, 2, 4, 8}) {
    grid::SchedulerConfig cfg;
    cfg.workers = k;
    grid::WorkStealingScheduler sched(cfg);
    std::string merged;
    std::uint64_t misses = 0;
    const double ns = bestOfNs(2, [&] {
      const grid::JobOutcome outcome = sched.run(plan, eval);
      merged = outcome.merged.serialize();
      misses = std::max(misses, outcome.fleet.counter("trace_store.misses"));
    });
    allIdentical = allIdentical && merged == refBytes;
    const double cellsPerSec = cells * 1e9 / ns;
    std::snprintf(buf, sizeof buf, "%.0f", cellsPerSec);
    bench::printKV("K=" + std::to_string(k) + " workers, cells/sec", buf);
    bench::printKV("K=" + std::to_string(k) + " workers, inputs resolved",
                   std::to_string(misses));
    perK.field("k" + std::to_string(k), cellsPerSec);
    missesPerK.field("k" + std::to_string(k), misses);
  }
  bench::printKV("merged == single-process (bit-identical, all K)",
                 allIdentical ? "yes" : "NO (BUG)");

  bench::JsonObject obj;
  bench::JsonObject gridShape;
  gridShape.field("states", kStates)
      .field("inputs", static_cast<int>(whole.iEnd))
      .field("shards", static_cast<int>(kShards));
  obj.field("workload", workload)
      .field("platform", platform)
      .rawField("grid", gridShape.str())
      .rawField("bit_identical", allIdentical ? "true" : "false")
      .rawField("cells_per_sec", perK.str())
      .rawField("trace_store_misses", missesPerK.str());
  *identical = allIdentical;
  return obj.str();
}

/// Attached-worker throughput: the same 8-shard 64 x 64 grid, but through
/// a full attach-only GridServer on a loopback TCP socket with K remote
/// `runAttachWorker` loops dialed in — frames, leases, and ShardDone
/// merging included, the honest cost of the remote-worker transport
/// relative to the in-process scheduler above.  Submissions bypass the
/// result cache so every rep recomputes; each K's bytes are asserted
/// identical to the single-process reference.  On a 1-core container the
/// K curve is flat — the gate is a throughput FLOOR, not a scaling claim.
std::string attachedThroughputGrid(bool* identical) {
  constexpr int kStates = 64;
  constexpr std::size_t kShards = 8;
  const std::string platform = "inorder-lru";
  const std::string workload = "linearsearch-16x64";
  bench::printHeader("Grid server: attached-worker throughput",
                     "8-shard 64 x 64 grid at K attached TCP workers");

  const auto w = study::WorkloadRegistry::instance().make(workload);
  exp::ShardSpec whole;
  whole.platform = platform;
  whole.workload = workload;
  whole.options.numStates = kStates;
  whole.engine.threads = 1;
  const auto model =
      exp::PlatformRegistry::instance().make(platform, w.program,
                                             whole.options);
  whole.qEnd = model->numStates();
  whole.iEnd = w.inputs.size();
  const double cells =
      static_cast<double>(whole.qEnd) * static_cast<double>(whole.iEnd);

  exp::ExperimentEngine ref(exp::EngineConfig{1});
  const std::string refBytes =
      ref.reduceCells(*model, w.program, w.inputs).serialize();

  const auto eval = study::gridShardEvaluator();
  bool allIdentical = true;
  bench::JsonObject perK;
  char buf[64];
  for (const int k : {1, 2, 4}) {
    grid::ServerConfig cfg;
    cfg.endpoint = "tcp:127.0.0.1:0";
    cfg.scheduler.workers = 0;  // attach-only: every shard rides a socket
    cfg.scheduler.retryBackoffMs = 1;
    grid::GridServer server(std::move(cfg));
    std::thread serving([&server] { server.serveForever(); });
    const std::string endpoint = server.boundEndpointText();
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(k));
    for (int t = 0; t < k; ++t) {
      workers.emplace_back([&endpoint, &eval] {
        grid::runAttachWorker(endpoint, eval, {});
      });
    }
    std::string merged;
    const double ns = bestOfNs(2, [&] {
      grid::GridClient client(endpoint);
      merged = client.submit(whole, kShards, /*useCache=*/false)
                   .accumulatorText;
    });
    allIdentical = allIdentical && merged == refBytes;
    grid::GridClient(endpoint).shutdownServer();
    serving.join();
    for (std::thread& t : workers) t.join();
    const double cellsPerSec = cells * 1e9 / ns;
    std::snprintf(buf, sizeof buf, "%.0f", cellsPerSec);
    bench::printKV("K=" + std::to_string(k) + " attached, cells/sec", buf);
    perK.field("k" + std::to_string(k), cellsPerSec);
  }
  bench::printKV("merged == single-process (bit-identical, all K)",
                 allIdentical ? "yes" : "NO (BUG)");

  bench::JsonObject obj;
  bench::JsonObject gridShape;
  gridShape.field("states", kStates)
      .field("inputs", static_cast<int>(whole.iEnd))
      .field("shards", static_cast<int>(kShards));
  obj.field("workload", workload)
      .field("platform", platform)
      .rawField("grid", gridShape.str())
      .rawField("bit_identical", allIdentical ? "true" : "false")
      .rawField("cells_per_sec", perK.str());
  *identical = allIdentical;
  return obj.str();
}

/// The acceptance grids of the replay-kernel layer — the additive in-order
/// fast path AND the cycle-accurate OOO kernel path — recorded in one
/// BENCH_exhaustive.json that scripts/bench_run.sh gates per grid.
///
/// The in-order grid keeps the PR-3 configuration (default tiny cache) so
/// its ns/cell stays comparable with the recorded baselines.  The OOO grid
/// uses a realistic 64-set x 4-way data cache: the OOO models' legacy path
/// deep-copies the cache per cell, so the tiny default geometry would
/// understate exactly the cost the packed snapshot replay removes.
void perfGrid(const char* argv0) {
  const int reps = 5;
  const auto inorder =
      perfGridFor("inorder-lru", exp::PlatformOptions{}.dataGeom, reps);
  const auto ooo =
      perfGridFor("ooo-fifo", cache::CacheGeometry{4, 64, 4}, reps);
  bool shardedIdentical = false;
  const std::string sharded = shardedThroughputGrid(&shardedIdentical);
  bool attachedIdentical = false;
  const std::string attached = attachedThroughputGrid(&attachedIdentical);
  bool collapseIdentical = false;
  const std::string collapse = collapseGrid(&collapseIdentical, reps);
  const std::string resolve = resolveGrid(reps);
  bool statesIdentical = false;
  const std::string states = statesGrid(&statesIdentical, reps);

  // Default the artifact NEXT TO THE BINARY (the build directory), not the
  // cwd: smoke runs launched from the repo root used to litter it with
  // BENCH_*.json, and a stale root-level JSON can mask a perf regression.
  // $BENCH_JSON still overrides (scripts/bench_run.sh and CI pin it).
  const char* envPath = std::getenv("BENCH_JSON");
  std::string path = "BENCH_exhaustive.json";
  if (envPath != nullptr) {
    path = envPath;
  } else {
    const std::string self = argv0 ? argv0 : "";
    const auto slash = self.find_last_of('/');
    if (slash != std::string::npos) {
      path = self.substr(0, slash + 1) + path;
    }
  }
  bench::JsonObject grids;
  grids.rawField("inorder-lru", inorder.json).rawField("ooo-fifo", ooo.json);
  bench::JsonObject root;
  root.field("bench", std::string("exhaustive"))
      .field("threads", exp::ExperimentEngine().resolvedThreads())
      .rawField("metrics_enabled", obs::compiledIn() ? "true" : "false")
      .rawField("bit_identical",
                inorder.identical && ooo.identical && shardedIdentical &&
                        attachedIdentical && collapseIdentical &&
                        statesIdentical
                    ? "true"
                    : "false")
      .rawField("grids", grids.str())
      .rawField("sharded", sharded)
      .rawField("attached", attached)
      .rawField("collapse", collapse)
      .rawField("resolve", resolve)
      .rawField("states", states);
  if (bench::writeTextFile(path, root.str())) {
    bench::printKV("json artifact", path);
  }
}

void verifyGrid() {
  bench::printHeader("Experiment engine",
                     "serial vs parallel vs memoized matrix computation");
  const auto prog = gridProgram();
  const auto inputs = gridInputs(prog, kGridInputs);
  const auto model =
      exp::PlatformRegistry::instance().make("inorder-lru", prog,
                                             gridOptions());

  exp::ExperimentEngine serial(exp::EngineConfig{1});
  exp::ExperimentEngine parallel(exp::EngineConfig{0});
  const auto mNaive = naiveSerialMatrix(*model, prog, inputs);
  const auto mSerial = serial.computeMatrix(*model, prog, inputs);
  const auto mParallel = parallel.computeMatrix(*model, prog, inputs);

  bench::printKV("grid", std::to_string(kGridStates) + " states x " +
                             std::to_string(kGridInputs) + " inputs");
  bench::printKV("worker threads (parallel path)",
                 std::to_string(parallel.resolvedThreads()));
  bench::printKV("parallel == serial (bit-identical)",
                 mSerial == mParallel ? "yes" : "NO (BUG)");
  bench::printKV("memoized == naive (same matrix)",
                 mSerial == mNaive ? "yes" : "NO (BUG)");
  bench::printKV("functional runs, naive path",
                 std::to_string(kGridStates * kGridInputs));
  bench::printKV("functional runs, memoized path",
                 std::to_string(serial.traceStore().misses()));
}

void BM_NaiveSerial(benchmark::State& state) {
  const auto prog = gridProgram();
  const auto inputs = gridInputs(prog, static_cast<int>(state.range(0)));
  auto opts = gridOptions();
  opts.numStates = static_cast<int>(state.range(0));
  const auto model =
      exp::PlatformRegistry::instance().make("inorder-lru", prog, opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(naiveSerialMatrix(*model, prog, inputs).wcet());
  }
}
BENCHMARK(BM_NaiveSerial)->Arg(16)->Arg(32);

void BM_MemoizedSerial(benchmark::State& state) {
  const auto prog = gridProgram();
  const auto inputs = gridInputs(prog, static_cast<int>(state.range(0)));
  auto opts = gridOptions();
  opts.numStates = static_cast<int>(state.range(0));
  const auto model =
      exp::PlatformRegistry::instance().make("inorder-lru", prog, opts);
  for (auto _ : state) {
    exp::ExperimentEngine engine(exp::EngineConfig{1});
    benchmark::DoNotOptimize(
        engine.computeMatrix(*model, prog, inputs).wcet());
  }
}
BENCHMARK(BM_MemoizedSerial)->Arg(16)->Arg(32);

void BM_MemoizedParallel(benchmark::State& state) {
  const auto prog = gridProgram();
  const auto inputs = gridInputs(prog, static_cast<int>(state.range(0)));
  auto opts = gridOptions();
  opts.numStates = static_cast<int>(state.range(0));
  const auto model =
      exp::PlatformRegistry::instance().make("inorder-lru", prog, opts);
  for (auto _ : state) {
    exp::ExperimentEngine engine(exp::EngineConfig{0});
    benchmark::DoNotOptimize(
        engine.computeMatrix(*model, prog, inputs).wcet());
  }
}
BENCHMARK(BM_MemoizedParallel)->Arg(16)->Arg(32);

/// Whole-grid view: a scenario sweep re-timing one workload on several
/// platforms, sharing traces across all of them through one engine.
void BM_ScenarioSweep(benchmark::State& state) {
  const auto prog = gridProgram();
  const auto inputs = gridInputs(prog, 8);
  for (auto _ : state) {
    study::ScenarioSuite suite;
    suite.addWorkload("linearSearch", prog, inputs);
    exp::PlatformOptions opts;
    opts.numStates = 8;
    suite.addPlatform("inorder-lru", opts);
    suite.addPlatform("inorder-fifo", opts);
    suite.addPlatform("ooo-lru", opts);
    suite.addPlatform("pret", opts);
    exp::ExperimentEngine engine;
    benchmark::DoNotOptimize(suite.run(engine).size());
  }
}
BENCHMARK(BM_ScenarioSweep);

}  // namespace

int main(int argc, char** argv) {
  verifyGrid();
  perfGrid(argc > 0 ? argv[0] : nullptr);
  return pred::bench::runBenchmarks(argc, argv);
}
