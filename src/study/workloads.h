#pragma once
// workloads.h — Named workload presets: the I axis of Definition 2, by name.
//
// A Workload packages a program together with the input set I it is
// quantified over, exactly as PlatformRegistry packages the hardware-state
// axis Q.  With both axes named, a query — and a whole Table 1/2 row — is
// pure data: {"bubblesort-8", "ooo-fifo", Exhaustive}.  The built-in
// presets cover every program family isa/workloads.h generates, each in its
// conventional (branchy) compilation and, where the single-path experiment
// needs it, the "-sp" single-path compilation of the SAME source.
//
// All methods are thread-safe; registered workloads are never removed, so
// pointers returned by find() stay valid for the registry's lifetime.

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "isa/machine.h"
#include "isa/program.h"

namespace pred::study {

/// A program plus the input set I it is quantified over.
struct WorkloadInstance {
  isa::Program program;
  std::vector<isa::Input> inputs;
};

/// A named workload: a factory producing the program and its inputs.
/// Factories are deterministic — two make() calls yield identical
/// instances — so findings are reproducible by name alone.
struct Workload {
  std::string name;
  std::string description;
  std::function<WorkloadInstance()> make;
};

/// Process-wide registry of workloads, pre-populated with the built-in
/// presets:
///
///   sum-16 / sum-24 / sum-32      counted loop, input-independent path
///   linearsearch-12[-sp]          input-dependent iteration count
///   linearsearch-16x64            64 random inputs — the wide grid the
///                                 perf bench and shard smoke sweep
///   bubblesort-8[-sp]             data-dependent swaps in counted loops
///   bubblesort-10                 the branch-prediction row's subject
///   branchtree-5[-sp]             nested if-tree classifier, corner inputs
///   matmul-4                      three nested counted loops, heavy memory
///   divkernel-8                   random inputs, data-dependent DIV
///   divkernel-12-magnitudes       fixed path, operand magnitudes swept
///   heapmix-8                     heap pointers (unknown addresses)
///   callroundrobin-8x6x4          call-heavy (method cache subject)
class WorkloadRegistry {
 public:
  /// The shared registry instance.
  static WorkloadRegistry& instance();

  /// Registers a workload.  Throws std::invalid_argument on duplicates.
  void add(Workload workload);

  /// nullptr when unknown.
  const Workload* find(const std::string& name) const;

  /// Instantiates the named workload.  Throws std::invalid_argument on
  /// unknown names.
  WorkloadInstance make(const std::string& name) const;

  /// All registered names, sorted.
  std::vector<std::string> names() const;

  /// Process-unique and never reused, unlike the registry's address: two
  /// registries can bind one name to different factories, and a dead
  /// registry's address can come back.  The grid evaluator's resident-grid
  /// key (study/distributed.h) carries it.
  std::uint64_t id() const { return id_; }

  /// A fresh registry with only the built-in presets (tests).
  WorkloadRegistry();

 private:
  const std::uint64_t id_;
  mutable std::mutex mutex_;
  std::map<std::string, Workload> workloads_;
};

}  // namespace pred::study
