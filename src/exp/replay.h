#pragma once
// replay.h — Compiled traces: the flat replay forms of a functional trace.
//
// Every matrix cell T(q, i) replays the same dynamic trace i against a
// different hardware state q.  The legacy evaluators walk the
// vector<ExecRecord> per cell, re-decoding Instr operands and re-deriving
// latency classes |Q| times per input.  A ReplayProgram lowers the trace
// ONCE into the flat arrays a replay kernel actually consumes — the same
// currying move the flat ground-term encodings of the rewriting literature
// use: compile the structure once, run a dumb fast loop over it.
//
// There are two lowered forms, and a model reads exactly one of them
// (TimingModel::packedForm, exp/platform.h):
//
//   Streams  the additive in-order form: instruction-fetch addresses,
//            data-access addresses, the conditional-branch outcome stream,
//            plus the per-class counts that fold every hardware-independent
//            latency contribution into one closed-form sum
//            (replayBaseCycles).  Per-cell work is that base sum + a packed
//            data-cache replay over dataAddr (+ a packed I-cache replay
//            over fetchPc and a predictor walk over the branch stream when
//            the platform has those components).
//   Ops      the cycle-accurate out-of-order form.  The OOO pipelines are
//            not additive — their cost is a function of dispatch pairing
//            and register dependencies — so they replay `ops`, one
//            pre-decoded ReplayOp per dynamic instruction (latency class,
//            register reads/writes, branch outcome, memory address),
//            through pipeline::runOooKernel against packed cache snapshots
//            with zero per-cell decoding.
//
// A ReplayProgram lowered for one form leaves the other form's fields
// empty; compileTrace(trace) without a form lowers both.  The TraceStore
// (exp/trace_store.h) lowers each form of an entry the first time a lookup
// asks for it, in the engine's resolve pass — never per cell — so an
// in-order sweep never pays for `ops` and an OOO sweep never pays for the
// streams.
//
// Lowering is exact, not approximate: for every InOrderConfig, predictor,
// and cache snapshot, the compiled replay is bit-identical to
// InOrderPipeline::run over the original trace, and likewise for the OOO
// kernel against OooPipeline::run (asserted cell-for-cell in
// tests/replay_test.cpp and tests/differential_test.cpp).

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/template.h"
#include "isa/exec.h"
#include "pipeline/inorder.h"

namespace pred::exp {

/// One dynamic instruction of the cycle-accurate replay stream: every fact
/// the out-of-order dispatch loop (pipeline/ooo_kernel.h) asks of a trace
/// record, pre-decoded at lowering time.  24 bytes, flat in memory — the
/// OOO kernel walks these instead of re-decoding ExecRecord/Instr per cell.
struct ReplayOp {
  std::int64_t memAddr = -1;      ///< LD/ST effective word address
  std::int32_t pc = 0;            ///< static instruction index (drain points)
  std::int32_t extraLatency = 0;  ///< data-dependent DIV cycles
  std::uint8_t cls = 0;           ///< isa::LatencyClass
  std::uint8_t flags = 0;         ///< kReplayOpTaken | kReplayOpWritesRd
  std::uint8_t numReads = 0;      ///< register reads used of reads[]
  std::uint8_t rd = 0;            ///< destination register when writesRd
  std::uint8_t reads[3] = {0, 0, 0};
};

inline constexpr std::uint8_t kReplayOpTaken = 1;     ///< control, taken
inline constexpr std::uint8_t kReplayOpWritesRd = 2;  ///< writes register rd

/// Ops adapter (the pipeline::runOooKernel contract) over the pre-lowered
/// flat stream — the packed-path twin of pipeline::TraceOps.
struct ReplayOps {
  const ReplayOp* ops;
  std::size_t n;

  std::size_t size() const { return n; }
  std::int32_t pc(std::size_t k) const { return ops[k].pc; }
  isa::LatencyClass cls(std::size_t k) const {
    return static_cast<isa::LatencyClass>(ops[k].cls);
  }
  std::int32_t extraLatency(std::size_t k) const {
    return ops[k].extraLatency;
  }
  std::int64_t memAddr(std::size_t k) const { return ops[k].memAddr; }
  bool branchTaken(std::size_t k) const {
    return (ops[k].flags & kReplayOpTaken) != 0;
  }
  void reads(std::size_t k, int out[3], int& numReads) const {
    const ReplayOp& op = ops[k];
    numReads = op.numReads;
    for (int j = 0; j < op.numReads; ++j) out[j] = op.reads[j];
  }
  bool writesRd(std::size_t k) const {
    return (ops[k].flags & kReplayOpWritesRd) != 0;
  }
  int rd(std::size_t k) const { return ops[k].rd; }
};

/// The lowered forms of a trace (see the file comment).  Streams and Ops
/// each fill their own fields; the other form's fields stay empty.
enum class ReplayForm : std::uint8_t {
  None,     ///< no lowering: the caller replays the isa::Trace itself
  Streams,  ///< fetchPc, dataAddr, condBranch*, and the class counts
  Ops,      ///< ops
};

/// POD replay form of one dynamic trace (flat arrays + class counts).
struct ReplayProgram {
  // ---- The Streams form.
  /// pc of every dynamic instruction, in order (the I-cache fetch stream).
  std::vector<std::int32_t> fetchPc;
  /// Effective word address of every LD/ST, in order (the D-cache stream).
  std::vector<std::int64_t> dataAddr;
  /// pc and outcome of every conditional branch, in order (the predictor
  /// stream).
  std::vector<std::int32_t> condBranchPc;
  std::vector<std::uint8_t> condBranchTaken;

  // Per-latency-class dynamic counts: everything the in-order pipeline adds
  // independently of hardware state.
  std::uint64_t numSingle = 0;
  std::uint64_t numMultiply = 0;
  std::uint64_t numDivide = 0;
  std::uint64_t sumDivLatency = 0;  ///< data-dependent DIV cycles, summed
  std::uint64_t numControl = 0;
  std::uint64_t numTakenControl = 0;  ///< control records with branchTaken
  std::uint64_t numTakenCond = 0;     ///< taken CONDITIONAL branches only
  std::uint64_t numNone = 0;          ///< NOP/HALT/DEADLINE slots

  // ---- The Ops form: one pre-decoded op per dynamic instruction, in
  // order — the register dependencies and per-op facts the OOO dispatch
  // loop needs and the additive streams above fold away.
  std::vector<ReplayOp> ops;

  /// The ops view in the pipeline::runOooKernel Ops contract.
  ReplayOps oooOps() const { return ReplayOps{ops.data(), ops.size()}; }

  /// Dynamic instructions in the trace, whichever form was lowered.
  std::size_t length() const { return std::max(fetchPc.size(), ops.size()); }
};

/// Lowers one trace into `form` (None yields an empty program); O(|trace|),
/// done once per (program, input, form).
ReplayProgram compileTrace(const isa::Trace& trace, ReplayForm form);
/// Lowers one trace into both forms.
ReplayProgram compileTrace(const isa::Trace& trace);

/// The hardware-state-independent cycle total of an in-order replay: class
/// latencies, DIV cycles, the per-memory-op issue cost, and the taken
/// penalties the pipeline pays regardless of q.  With a predictor attached,
/// conditional-branch penalties are resolved per branch by the caller, so
/// only the unconditional control transfers contribute here.
core::Cycles replayBaseCycles(const ReplayProgram& rp,
                              const pipeline::InOrderConfig& config,
                              bool withPredictor);

}  // namespace pred::exp
