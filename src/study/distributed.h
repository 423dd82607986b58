#pragma once
// distributed.h — Study-layer glue for the grid service.
//
// The grid layer (src/grid/) deliberately sits below the study layer:
// ShardSpecs carry workload NAMES, and the scheduler/server never touch
// the WorkloadRegistry.  This header is where the names get resolved —
// gridShardEvaluator() packages registry lookup + exp::evaluateShard into
// the ShardEvalFn every grid worker runs (`pred-shard-worker attach`, an
// in-process GridServer's slots, a bare scheduler), and
// Query::runDistributed (declared in query.h, implemented here) is the
// client-side entry point — the one way a query's grid leaves the process.

#include "exp/platform.h"
#include "grid/scheduler.h"
#include "study/workloads.h"

namespace pred::study {

/// The shard evaluator over the registries, run by `pred-shard-worker
/// attach` and by in-process GridServer slots and schedulers: resolves
/// spec.workload by name, takes spec.platform's model from an engine, and
/// evaluates the shard's cells with full telemetry (exp::evaluateShard on
/// that engine).
///
/// Each thread that calls it keeps the grid it evaluated last RESIDENT: the
/// WorkloadInstance plus an ExperimentEngine built from spec.engine, whose
/// TraceStore and model cache stay warm.  The resident key is everything in
/// the spec except its ranges (workload, platform, canonical options, the
/// engine block) plus both registries' id()s, so evaluators over different
/// registries never share a grid.  A shard with the same key as the last
/// one makes no workload, no model and no trace — shards 2..N of a job on
/// one thread only replay.  Another key drops the old grid before building
/// the new one, and a call that throws leaves its thread with no resident
/// grid.  So the bound is one grid per evaluating thread — `concurrency`
/// grids per attach worker, one per LocalChannel — freed when the thread
/// exits.  Residency is per thread, not pooled, because glibc gives each
/// thread its own malloc arena: a grid handed between threads grows both.
///
/// The report is the shard's delta (exp::evaluateShard) with wall time over
/// the whole call, and phases setup.workload (the workload's
/// materialization) and model.make only on a call that built them.  Bytes
/// are identical to a fresh evaluateShard's: a resident workload or model is
/// the same object a rebuild would make.  Thread-safe; the registries must
/// outlive the returned function (the shared instances always do).
grid::ShardEvalFn gridShardEvaluator(
    const WorkloadRegistry& workloads = WorkloadRegistry::instance(),
    const exp::PlatformRegistry& platforms =
        exp::PlatformRegistry::instance());

}  // namespace pred::study
