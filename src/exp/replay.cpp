#include "exp/replay.h"

#include "isa/instr.h"
#include "pipeline/ooo_kernel.h"

namespace pred::exp {

namespace {

/// One pass over the trace, filling the requested forms.
ReplayProgram lower(const isa::Trace& trace, bool streams, bool ops) {
  ReplayProgram rp;
  if (streams) rp.fetchPc.reserve(trace.size());
  if (ops) rp.ops.reserve(trace.size());
  for (const auto& rec : trace) {
    const isa::LatencyClass cls = isa::latencyClass(rec.instr.op);
    if (ops) {
      ReplayOp op;
      op.memAddr = rec.memWordAddr;
      op.pc = rec.pc;
      op.extraLatency = rec.extraLatency;
      op.cls = static_cast<std::uint8_t>(cls);
      if (rec.branchTaken) op.flags |= kReplayOpTaken;
      if (pipeline::detail::writesRd(rec.instr)) {
        op.flags |= kReplayOpWritesRd;
        op.rd = rec.instr.rd;
      }
      int reads[3];
      int numReads = 0;
      pipeline::detail::readRegisters(rec.instr, reads, numReads);
      op.numReads = static_cast<std::uint8_t>(numReads);
      for (int j = 0; j < numReads; ++j) {
        op.reads[j] = static_cast<std::uint8_t>(reads[j]);
      }
      rp.ops.push_back(op);
    }
    if (!streams) continue;
    rp.fetchPc.push_back(rec.pc);
    switch (cls) {
      case isa::LatencyClass::Single:
        ++rp.numSingle;
        break;
      case isa::LatencyClass::Multiply:
        ++rp.numMultiply;
        break;
      case isa::LatencyClass::Divide:
        ++rp.numDivide;
        // Matches the per-record cast of the interpreted replay modulo
        // 2^64, so the uint64 totals stay bit-identical.
        rp.sumDivLatency += static_cast<core::Cycles>(rec.extraLatency);
        break;
      case isa::LatencyClass::Memory:
        rp.dataAddr.push_back(rec.memWordAddr);
        break;
      case isa::LatencyClass::Control:
        ++rp.numControl;
        if (rec.branchTaken) ++rp.numTakenControl;
        if (isa::isConditionalBranch(rec.instr.op)) {
          rp.condBranchPc.push_back(rec.pc);
          rp.condBranchTaken.push_back(rec.branchTaken ? 1 : 0);
          if (rec.branchTaken) ++rp.numTakenCond;
        }
        break;
      case isa::LatencyClass::None:
        ++rp.numNone;
        break;
    }
  }
  return rp;
}

}  // namespace

ReplayProgram compileTrace(const isa::Trace& trace, ReplayForm form) {
  return lower(trace, form == ReplayForm::Streams, form == ReplayForm::Ops);
}

ReplayProgram compileTrace(const isa::Trace& trace) {
  return lower(trace, true, true);
}

core::Cycles replayBaseCycles(const ReplayProgram& rp,
                              const pipeline::InOrderConfig& config,
                              bool withPredictor) {
  core::Cycles total = rp.numSingle * config.aluLatency +
                       rp.numMultiply * config.mulLatency +
                       rp.numControl * config.controlLatency +
                       rp.numNone * 1 +
                       rp.dataAddr.size() * config.aluLatency;
  total += config.constantDiv
               ? rp.numDivide * static_cast<core::Cycles>(isa::maxDivLatency())
               : rp.sumDivLatency;
  // Without a predictor every taken control transfer pays the fetch bubble;
  // with one, conditional branches resolve per branch in the caller's
  // predictor walk and only the unconditional transfers pay it here.
  const core::Cycles takenHere =
      withPredictor ? rp.numTakenControl - rp.numTakenCond
                    : rp.numTakenControl;
  total += takenHere * config.takenPenalty;
  return total;
}

}  // namespace pred::exp
