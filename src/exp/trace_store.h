#pragma once
// trace_store.h — Memoized functional traces, their lowered replay forms,
// and their trace-equivalence classes, behind ONE lookup.
//
// Every timing model in this repository is trace-driven (isa/exec.h): the
// functional trace of a program depends on the input i alone, never on the
// hardware state q.  The seed benches nevertheless re-ran the functional
// core once per (q, i) cell or once per bench.  The TraceStore computes the
// trace for each (program, input) pair exactly once and shares it across
// every hardware state, platform, and scenario that replays it — the
// "shared precomputed structure" idea applied to Definition 2's inner loop.
//
// entryRefFor is the only lookup.  It has one miss path (run the functional
// core, publish the trace, assign its class) and one lowering step: each
// replay form of an entry (exp/replay.h — Streams for the in-order models,
// Ops for the out-of-order ones) is lowered into its own slot the first
// time a lookup asks for that form, and never mutated once published.  So
// the packed replay kernels lower each input once per form they read, and
// interpreted-only callers (ReplayForm::None) never pay for lowering.
//
// Keys are content, not object addresses: the program's fingerprint and the
// input's exact bindings, as raw 64-bit words.  Two structurally identical
// programs share entries, and the store stays valid however long callers
// keep it around.  All methods are thread-safe; returned trace/compiled
// pointers are stable for the store's lifetime.  Internally the map is
// sharded into kNumBuckets independently locked buckets keyed by the key's
// hash, so a wide worker pool filling the store does not serialize on one
// mutex.
//
// What each hash is trusted for:
//   programFingerprint  IS part of the key.  The store never compares the
//                       programs themselves, so two programs with the same
//                       fingerprint would share entries: this hash must
//                       see every instruction field and the whole memory
//                       layout, and it stays a byte-wise FNV-1a.  It is
//                       computed once per ProgramKey — the engine builds
//                       one per walk item, not one per lookup.
//   traceFingerprint    only BUCKETS trace-equivalence classes.  Every
//                       class is confirmed by exact record-for-record
//                       comparison (tracesIdentical), so a collision can
//                       split a class but never merge two distinct traces;
//                       its quality affects speed, never results.  It mixes
//                       four packed 64-bit words per record.
//
// Trace-equivalence classes: distinct inputs frequently lower to the SAME
// functional trace (duplicated inputs, permutations the program never
// observes, values that steer no branch).  Since T(q, i) is a function of
// the trace alone, such inputs are timing-indistinguishable on every
// platform — so the store assigns every entry a class id: entries whose
// traces are identical record-for-record share one id, stable for the
// store's lifetime (clear() resets the numbering along with everything
// else).  The ExperimentEngine uses the ids to evaluate each class once
// per hardware state and fan the result out to all member inputs
// (EngineConfig::collapseTraceClasses).

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "exp/replay.h"
#include "obs/metrics.h"
#include "isa/exec.h"
#include "isa/machine.h"
#include "isa/program.h"

namespace pred::exp {

/// Content fingerprint of a program: FNV-1a over the instruction stream AND
/// all four MemoryLayout fields.  The bases matter even though they never
/// change an address the code computes: staticBase/stackBase/heapBase decide
/// the DataRegion classification of every access (split-cache routing), and
/// memWords decides how out-of-range addresses wrap (MachineState::wrapAddr)
/// — two code-identical programs with different layouts can produce
/// different traces and MUST NOT share a store entry.  (A pre-fix version
/// mixed memWords only; the layout-collision regression test in
/// tests/exp_engine_test.cpp fails against it.)  Exposed for tests.
std::uint64_t programFingerprint(const isa::Program& program);

/// Content fingerprint of one functional trace: word-wise FNV-1a over the
/// trace length and four packed words per record — (pc, nextPc), (op, rd,
/// rs1, rs2, branchTaken), (imm, extraLatency), memWordAddr.  The packing
/// is injective and every step (xor, then multiply by an odd prime) is a
/// bijection in the running hash, so two equal-length traces that differ
/// in one field of one record always hash differently.  Equal traces always
/// hash equal; the class machinery below never trusts the converse.
/// Exposed for tests.
std::uint64_t traceFingerprint(const isa::Trace& trace);

/// Exact record-for-record equality of two traces — the relation that
/// defines a trace-equivalence class.
bool tracesIdentical(const isa::Trace& a, const isa::Trace& b);

class TraceStore {
 public:
  /// Lock shards; a power of two so the hash maps onto buckets by mask.
  static constexpr std::size_t kNumBuckets = 16;

  /// A program as the first part of a store key: the program and its
  /// programFingerprint, hashed once at construction.  Converts implicitly
  /// from a program, so a one-off lookup passes the program itself; a
  /// caller resolving many inputs of one program builds the key once.  It
  /// refers to the program, which must outlive it.
  struct ProgramKey {
    ProgramKey(const isa::Program& p)
        : program(p), fingerprint(programFingerprint(p)) {}
    const isa::Program& program;
    std::uint64_t fingerprint;
  };

  /// The memoized entry of `program` on `input`: its trace, its
  /// trace-equivalence class id and — unless `form` is None — its replay
  /// form `form`.  The trace is computed on first use (throws
  /// std::runtime_error if the program does not halt on the input); a form
  /// is lowered the first time a lookup asks for it.  Inputs are equal
  /// keys exactly when their register and memory bindings are equal (the
  /// name is ignored).  One lookup counts once as a hit or a miss, whether
  /// or not it lowers.
  struct EntryRef {
    const isa::Trace* trace;
    /// The requested form; null exactly when `form` is None.
    const ReplayProgram* compiled;
    std::uint32_t classId;
    /// Each form as published when the lookup returned (null: not lowered
    /// yet); a non-null `compiled` is one of the two.
    const ReplayProgram* streams;
    const ReplayProgram* ops;
  };
  EntryRef entryRefFor(const ProgramKey& program, const isa::Input& input,
                       ReplayForm form = ReplayForm::Streams);

  std::size_t size() const;
  /// Distinct trace-equivalence classes assigned so far (<= size()).
  std::size_t classCount() const;
  /// Lookup statistics, exact once concurrent fillers are joined (the
  /// counters are relaxed obs::Counters — see the memory-order contract in
  /// obs/metrics.h; hit/miss attribution is per LOOKUP).
  /// Note the split is deterministic only for serial filling: when two
  /// workers race to miss on the same key, the loser's lookup counts as a
  /// hit (the store already had the trace by the time it inserted).
  std::uint64_t hits() const { return hits_.value(); }
  std::uint64_t misses() const { return misses_.value(); }

  /// Drops every entry AND resets the hit/miss counters and the class
  /// numbering — a cleared store reports like a fresh one.
  void clear();

 private:
  struct Entry {
    isa::Trace trace;
    /// One slot per replay form, each lowered on the first lookup that
    /// asks for it and never mutated after; unique_ptr for pointer
    /// stability once published (always accessed under the owning bucket's
    /// lock).
    std::unique_ptr<ReplayProgram> streams;
    std::unique_ptr<ReplayProgram> ops;
    /// Trace-equivalence class id, assigned once the entry is published
    /// (always accessed under the owning bucket's lock).
    std::uint32_t classId = 0;
  };
  struct Bucket {
    mutable std::mutex mu;
    /// Binary keys (see keyOf in trace_store.cpp); unique_ptr for pointer
    /// stability across rehashes.
    std::unordered_map<std::string, std::unique_ptr<Entry>> entries;
  };

  /// The class id of `trace`: the id of the existing class whose
  /// representative is record-for-record identical, or a fresh id.  `trace`
  /// must be owned by a published entry (its address is retained as the
  /// class representative until clear()).
  std::uint32_t classFor(const isa::Trace& trace);

  std::array<Bucket, kNumBuckets> buckets_;
  /// Trace-equivalence classes: content fingerprint -> the classes sharing
  /// that fingerprint, each as (id, representative trace).  The vector is
  /// the collision guard: same-fingerprint-different-content traces get
  /// distinct ids.
  mutable std::mutex classMu_;
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::uint32_t, const isa::Trace*>>>
      classesByFingerprint_;
  std::uint32_t nextClassId_ = 0;
  obs::Counter hits_;
  obs::Counter misses_;
};

}  // namespace pred::exp
