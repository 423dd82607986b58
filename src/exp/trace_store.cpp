#include "exp/trace_store.h"

#include <cstring>
#include <functional>
#include <stdexcept>
#include <utility>

namespace pred::exp {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Byte-wise FNV-1a step over one 64-bit value (programFingerprint).
void fnvMix(std::uint64_t& h, std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (8 * byte)) & 0xffULL;
    h *= kFnvPrime;
  }
}

/// Word-wise FNV-1a step (traceFingerprint): xor, then multiply by an odd
/// prime — a bijection in h for every w.
void fnvMixWord(std::uint64_t& h, std::uint64_t w) {
  h ^= w;
  h *= kFnvPrime;
}

/// Zero-extends a 32-bit field into its own half of a packed word.
std::uint64_t u32(std::int32_t v) {
  return static_cast<std::uint64_t>(static_cast<std::uint32_t>(v));
}

void appendWord(std::string& key, std::uint64_t w) {
  char bytes[sizeof w];
  std::memcpy(bytes, &w, sizeof w);
  key.append(bytes, sizeof w);
}

/// The store key of one (program, input) pair, as raw 64-bit words:
/// program fingerprint, register count, (register, value)..., memory count,
/// (address, value).... The counts keep the encoding injective, so two
/// inputs share a key exactly when their bindings are equal.
std::string keyOf(std::uint64_t programFp, const isa::Input& input) {
  std::string key;
  key.reserve(8 * (3 + 2 * (input.regs.size() + input.mem.size())));
  appendWord(key, programFp);
  appendWord(key, input.regs.size());
  for (const auto& [reg, value] : input.regs) {
    appendWord(key, static_cast<std::uint64_t>(reg));
    appendWord(key, static_cast<std::uint64_t>(value));
  }
  appendWord(key, input.mem.size());
  for (const auto& [addr, value] : input.mem) {
    appendWord(key, static_cast<std::uint64_t>(addr));
    appendWord(key, static_cast<std::uint64_t>(value));
  }
  return key;
}

std::uint64_t packedFields(const isa::Instr& ins) {
  return (static_cast<std::uint64_t>(ins.rd) << 16) |
         (static_cast<std::uint64_t>(ins.rs1) << 8) |
         static_cast<std::uint64_t>(ins.rs2);
}

bool sameInstr(const isa::Instr& a, const isa::Instr& b) {
  return a.op == b.op && a.rd == b.rd && a.rs1 == b.rs1 && a.rs2 == b.rs2 &&
         a.imm == b.imm;
}

}  // namespace

std::uint64_t programFingerprint(const isa::Program& program) {
  std::uint64_t h = kFnvOffset;
  for (const auto& ins : program.code) {
    fnvMix(h, static_cast<std::uint64_t>(ins.op));
    fnvMix(h, packedFields(ins));
    fnvMix(h, static_cast<std::uint64_t>(
                  static_cast<std::int64_t>(ins.imm)));
  }
  // The whole layout, not just memWords: the bases steer the DataRegion
  // classification (split caches) and memWords steers address wrapping, so
  // any layout difference can change timing or even the trace itself.
  fnvMix(h, static_cast<std::uint64_t>(program.layout.staticBase));
  fnvMix(h, static_cast<std::uint64_t>(program.layout.stackBase));
  fnvMix(h, static_cast<std::uint64_t>(program.layout.heapBase));
  fnvMix(h, static_cast<std::uint64_t>(program.layout.memWords));
  return h;
}

std::uint64_t traceFingerprint(const isa::Trace& trace) {
  std::uint64_t h = kFnvOffset;
  fnvMixWord(h, static_cast<std::uint64_t>(trace.size()));
  for (const auto& rec : trace) {
    const isa::Instr& ins = rec.instr;
    fnvMixWord(h, u32(rec.pc) | u32(rec.nextPc) << 32);
    fnvMixWord(h, static_cast<std::uint64_t>(ins.op) |
                      static_cast<std::uint64_t>(ins.rd) << 8 |
                      static_cast<std::uint64_t>(ins.rs1) << 16 |
                      static_cast<std::uint64_t>(ins.rs2) << 24 |
                      static_cast<std::uint64_t>(rec.branchTaken) << 32);
    fnvMixWord(h, u32(ins.imm) | u32(rec.extraLatency) << 32);
    fnvMixWord(h, static_cast<std::uint64_t>(rec.memWordAddr));
  }
  return h;
}

bool tracesIdentical(const isa::Trace& a, const isa::Trace& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    const auto& ra = a[k];
    const auto& rb = b[k];
    if (ra.pc != rb.pc || !sameInstr(ra.instr, rb.instr) ||
        ra.branchTaken != rb.branchTaken || ra.nextPc != rb.nextPc ||
        ra.memWordAddr != rb.memWordAddr ||
        ra.extraLatency != rb.extraLatency) {
      return false;
    }
  }
  return true;
}

std::uint32_t TraceStore::classFor(const isa::Trace& trace) {
  const std::uint64_t fp = traceFingerprint(trace);
  std::lock_guard<std::mutex> lock(classMu_);
  auto& classes = classesByFingerprint_[fp];
  for (const auto& [id, rep] : classes) {
    if (tracesIdentical(*rep, trace)) return id;
  }
  const std::uint32_t id = nextClassId_++;
  classes.emplace_back(id, &trace);
  return id;
}

TraceStore::EntryRef TraceStore::entryRefFor(const ProgramKey& program,
                                             const isa::Input& input,
                                             ReplayForm form) {
  const std::string key = keyOf(program.fingerprint, input);
  Bucket& bucket =
      buckets_[std::hash<std::string>{}(key) & (kNumBuckets - 1)];
  // What a lookup returns, read under the bucket lock.
  const auto refOf = [form](const Entry& e) {
    const ReplayProgram* streams = e.streams.get();
    const ReplayProgram* ops = e.ops.get();
    const ReplayProgram* compiled = form == ReplayForm::Streams ? streams
                                    : form == ReplayForm::Ops   ? ops
                                                                : nullptr;
    return EntryRef{&e.trace, compiled, e.classId, streams, ops};
  };
  Entry* entry = nullptr;
  EntryRef ref{};
  {
    std::lock_guard<std::mutex> lock(bucket.mu);
    if (const auto it = bucket.entries.find(key); it != bucket.entries.end()) {
      hits_.add();
      entry = it->second.get();
      ref = refOf(*entry);
    }
  }
  if (entry == nullptr) {
    // The miss path.  Run outside the lock: functional execution dominates,
    // and concurrent misses on the same key are harmless (the first insert
    // wins and the traces are equal anyway).
    auto run = isa::FunctionalCore::run(program.program, input);
    if (!run.completed) {
      throw std::runtime_error("program did not halt for input " + input.name);
    }
    auto fresh = std::make_unique<Entry>();
    fresh->trace = std::move(run.trace);
    // The functional core reserves 1024 records up front; a stored trace
    // keeps only the records it has.  That halves what the store holds on
    // short traces, and keeps the heap of a grid worker (a fresh store per
    // shard) from being trimmed and faulted back in between shards.
    fresh->trace.shrink_to_fit();
    std::lock_guard<std::mutex> lock(bucket.mu);
    const auto [it, inserted] =
        bucket.entries.try_emplace(key, std::move(fresh));
    // A lost race counts as a hit: the store already had the trace.
    (inserted ? misses_ : hits_).add();
    entry = it->second.get();
    if (inserted) {
      // Class assignment happens AFTER the insert race resolves, on the
      // surviving entry, so the class table only ever holds representative
      // pointers into published (never-destroyed) entries.  Lock order is
      // bucket.mu -> classMu_, everywhere.
      entry->classId = classFor(entry->trace);
    }
    ref = refOf(*entry);
  }
  if (form != ReplayForm::None && ref.compiled == nullptr) {
    // The lowering step, on the first lookup that asks for this form:
    // lower the published trace outside the lock into the form's own slot.
    // A concurrent lowering of the same form is harmless (the first
    // publish wins and the forms are equal), and a published slot is never
    // touched again.
    auto lowered =
        std::make_unique<ReplayProgram>(compileTrace(entry->trace, form));
    std::lock_guard<std::mutex> lock(bucket.mu);
    auto& slot = form == ReplayForm::Ops ? entry->ops : entry->streams;
    if (!slot) slot = std::move(lowered);
    ref = refOf(*entry);
  }
  return ref;
}

std::size_t TraceStore::size() const {
  std::size_t n = 0;
  for (const auto& bucket : buckets_) {
    std::lock_guard<std::mutex> lock(bucket.mu);
    n += bucket.entries.size();
  }
  return n;
}

std::size_t TraceStore::classCount() const {
  std::lock_guard<std::mutex> lock(classMu_);
  return static_cast<std::size_t>(nextClassId_);
}

void TraceStore::clear() {
  // Bucket locks first, then the class table, matching the
  // bucket.mu -> classMu_ order used on the insert path.
  for (auto& bucket : buckets_) {
    std::lock_guard<std::mutex> lock(bucket.mu);
    bucket.entries.clear();
  }
  {
    std::lock_guard<std::mutex> lock(classMu_);
    classesByFingerprint_.clear();
    nextClassId_ = 0;
  }
  hits_.reset();
  misses_.reset();
}

}  // namespace pred::exp
