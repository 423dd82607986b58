#include "study/workloads.h"

#include <atomic>
#include <stdexcept>
#include <utility>

#include "isa/ast.h"
#include "isa/singlepath.h"
#include "isa/workloads.h"

namespace pred::study {

namespace {

using isa::workloads::randomArrayInputs;

std::vector<isa::Input> singleInput() { return {isa::Input{}}; }

/// Array inputs plus a fixed search key (workloads reading "a" and "key").
std::vector<isa::Input> keyedArrayInputs(const isa::Program& prog,
                                         std::int64_t n, int howMany,
                                         std::uint64_t seed,
                                         std::int64_t range,
                                         std::int64_t key) {
  auto inputs = randomArrayInputs(prog, "a", n, howMany, seed, range);
  for (auto& in : inputs) {
    in = isa::mergeInputs(in, isa::varInput(prog, "key", key));
  }
  return inputs;
}

/// 16 distinct keyed arrays x 4 trace-equal variants each: the
/// duplicate-heavy grid that exercises trace-class collapse
/// (exp::EngineConfig::collapseTraceClasses) end-to-end.  Per base array:
/// the original, an exact renamed copy (same store key — Input equality
/// ignores names), a copy with one extra NEVER-READ scratch word (distinct
/// store key, identical trace), and a copy with two scanned non-key
/// elements swapped (traces record comparison OUTCOMES and addresses, not
/// loaded values, so the permutation is trace-invisible; falls back to a
/// second scratch word when no safe swap exists).  64 inputs, at most
/// `howMany` distinct traces.
std::vector<isa::Input> dupKeyedArrayInputs(const isa::Program& prog,
                                            std::int64_t n, int howMany,
                                            std::uint64_t seed,
                                            std::int64_t range,
                                            std::int64_t key) {
  auto bases = keyedArrayInputs(prog, n, howMany, seed, range, key);
  const auto arr = prog.variables.at("a");
  // A linear-search trace depends only on the scan length (values are
  // loaded, compared, and never recorded), so random arrays would mostly
  // share the full-scan "not found" class.  Plant the key at a distinct
  // position per base array — clearing accidental earlier hits — so the
  // bases have `howMany` DISTINCT scan lengths: exactly howMany trace
  // classes, by construction, not by luck of the draw.
  for (std::size_t b = 0; b < bases.size(); ++b) {
    const std::int64_t pos = static_cast<std::int64_t>(b) % n;
    for (std::int64_t j = 0; j < n; ++j) {
      auto& v = bases[b].mem.at(arr + j);
      if (v == key) v = key + 1;
    }
    bases[b].mem.at(arr + pos) = key;
  }
  std::vector<isa::Input> out;
  out.reserve(bases.size() * 4);
  for (const auto& in : bases) {
    out.push_back(in);

    isa::Input renamed = in;
    renamed.name = in.name + "-dup";
    out.push_back(std::move(renamed));

    isa::Input scratch = in;
    scratch.mem[prog.layout.heapBase + 17] =
        static_cast<std::int64_t>(out.size());
    scratch.name = in.name + "-scratch";
    out.push_back(std::move(scratch));

    // Swapping elements the search scans is outcome-preserving as long as
    // neither equals the key (every a[j] == key comparison keeps its
    // verdict) and the swap stays below the first key occurrence (so the
    // scan length cannot change either).
    isa::Input swapped = in;
    std::int64_t firstHit = n;
    for (std::int64_t j = 0; j < n; ++j) {
      if (swapped.mem.at(arr + j) == key) {
        firstHit = j;
        break;
      }
    }
    bool didSwap = false;
    for (std::int64_t x = 0; x < firstHit && !didSwap; ++x) {
      for (std::int64_t y = x + 1; y < firstHit && !didSwap; ++y) {
        auto& vx = swapped.mem.at(arr + x);
        auto& vy = swapped.mem.at(arr + y);
        if (vx != key && vy != key && vx != vy) {
          std::swap(vx, vy);
          didSwap = true;
        }
      }
    }
    if (didSwap) {
      swapped.name = in.name + "-perm";
    } else {
      swapped.mem[prog.layout.heapBase + 18] = 1;
      swapped.name = in.name + "-scratch2";
    }
    out.push_back(std::move(swapped));
  }
  return out;
}

/// branchtree: drive the x0..x{depth-1} inputs through corner patterns.
std::vector<isa::Input> cornerInputs(const isa::Program& prog, int depth,
                                     int howMany) {
  std::vector<isa::Input> inputs{isa::Input{}};
  for (int mask = 0; mask < howMany; ++mask) {
    isa::Input in;
    for (int d = 0; d < depth; ++d) {
      in = isa::mergeInputs(
          in, isa::varInput(prog, "x" + std::to_string(d),
                            (mask >> (d % 4)) & 1 ? 20 : 0));
    }
    inputs.push_back(in);
  }
  return inputs;
}

/// divKernel with a fixed path and operand magnitudes swept — the virtual-
/// trace row's subject (variable DIV latency without control variability).
std::vector<isa::Input> magnitudeInputs(const isa::Program& prog,
                                        std::int64_t n) {
  const auto base = prog.variables.at("a");
  std::vector<isa::Input> inputs;
  for (std::int64_t magnitude : {std::int64_t{1}, std::int64_t{1000},
                                 std::int64_t{1000000},
                                 std::int64_t{1000000000}}) {
    isa::Input in = isa::varInput(prog, "x", 0);
    for (std::int64_t i = 0; i < n; ++i) in.mem[base + i] = magnitude;
    in.name = "magnitude=" + std::to_string(magnitude);
    inputs.push_back(std::move(in));
  }
  return inputs;
}

/// Source of WorkloadRegistry::id(): never reset, so never reused.
std::atomic<std::uint64_t> nextRegistryId{1};

}  // namespace

WorkloadRegistry::WorkloadRegistry() : id_(nextRegistryId.fetch_add(1)) {
  auto preset = [this](std::string name, std::string description,
                       std::function<WorkloadInstance()> make) {
    add(Workload{std::move(name), std::move(description), std::move(make)});
  };

  for (const std::int64_t n : {16, 24, 32}) {
    preset("sum-" + std::to_string(n),
           "array sum, counted loop, input-independent path", [n] {
             return WorkloadInstance{
                 isa::ast::compileBranchy(isa::workloads::sumLoop(n)),
                 singleInput()};
           });
  }
  preset("linearsearch-12",
         "linear search over 12 words, 16 random arrays, key=5", [] {
           auto prog =
               isa::ast::compileBranchy(isa::workloads::linearSearch(12));
           auto inputs = keyedArrayInputs(prog, 12, 16, 2024, 12, 5);
           return WorkloadInstance{std::move(prog), std::move(inputs)};
         });
  preset("linearsearch-12-sp",
         "single-path compilation of linearsearch-12 (same inputs)", [] {
           auto prog =
               isa::ast::compileSinglePath(isa::workloads::linearSearch(12));
           auto inputs = keyedArrayInputs(prog, 12, 16, 2024, 12, 5);
           return WorkloadInstance{std::move(prog), std::move(inputs)};
         });
  preset("linearsearch-16x64",
         "linear search over 16 words, 64 random arrays, key=7 (the "
         "64-input perf/shard grid workload)",
         [] {
           auto prog =
               isa::ast::compileBranchy(isa::workloads::linearSearch(16));
           auto inputs = keyedArrayInputs(prog, 16, 64, 2024, 64, 7);
           return WorkloadInstance{std::move(prog), std::move(inputs)};
         });
  preset("linearsearch-16x64-dup",
         "linear search over 16 words, 16 distinct scan lengths x 4 "
         "trace-equal variants = 64 inputs, exactly 16 trace classes (the "
         "duplicate-heavy collapse grid)",
         [] {
           auto prog =
               isa::ast::compileBranchy(isa::workloads::linearSearch(16));
           auto inputs = dupKeyedArrayInputs(prog, 16, 16, 2024, 64, 7);
           return WorkloadInstance{std::move(prog), std::move(inputs)};
         });
  preset("bubblesort-8", "bubble sort of 8 words, 12 random arrays", [] {
    auto prog = isa::ast::compileBranchy(isa::workloads::bubbleSort(8));
    auto inputs = randomArrayInputs(prog, "a", 8, 12, 31, 24);
    return WorkloadInstance{std::move(prog), std::move(inputs)};
  });
  preset("bubblesort-8-sp",
         "single-path compilation of bubblesort-8 (same inputs)", [] {
           auto prog =
               isa::ast::compileSinglePath(isa::workloads::bubbleSort(8));
           auto inputs = randomArrayInputs(prog, "a", 8, 12, 31, 24);
           return WorkloadInstance{std::move(prog), std::move(inputs)};
         });
  preset("bubblesort-10", "bubble sort of 10 words, 12 random arrays", [] {
    auto prog = isa::ast::compileBranchy(isa::workloads::bubbleSort(10));
    auto inputs = randomArrayInputs(prog, "a", 10, 12, 555, 64);
    return WorkloadInstance{std::move(prog), std::move(inputs)};
  });
  preset("branchtree-5", "depth-5 if-tree classifier, 13 corner inputs", [] {
    auto prog = isa::ast::compileBranchy(isa::workloads::branchTree(5));
    auto inputs = cornerInputs(prog, 5, 12);
    return WorkloadInstance{std::move(prog), std::move(inputs)};
  });
  preset("branchtree-5-sp",
         "single-path compilation of branchtree-5 (same inputs)", [] {
           auto prog =
               isa::ast::compileSinglePath(isa::workloads::branchTree(5));
           auto inputs = cornerInputs(prog, 5, 12);
           return WorkloadInstance{std::move(prog), std::move(inputs)};
         });
  preset("matmul-4", "4x4 matrix multiply, single input", [] {
    return WorkloadInstance{
        isa::ast::compileBranchy(isa::workloads::matMul(4)), singleInput()};
  });
  preset("divkernel-8", "division kernel over 8 words, 6 random inputs", [] {
    auto prog = isa::ast::compileBranchy(isa::workloads::divKernel(8));
    auto inputs = randomArrayInputs(prog, "a", 8, 6, 77);
    return WorkloadInstance{std::move(prog), std::move(inputs)};
  });
  preset("divkernel-12-magnitudes",
         "division kernel, fixed path, operand magnitudes 1..1e9", [] {
           auto prog =
               isa::ast::compileBranchy(isa::workloads::divKernel(12));
           auto inputs = magnitudeInputs(prog, 12);
           return WorkloadInstance{std::move(prog), std::move(inputs)};
         });
  preset("heapmix-8", "heap-pointer mix over 8 words, single input", [] {
    return WorkloadInstance{
        isa::ast::compileBranchy(isa::workloads::heapMix(8)), singleInput()};
  });
  preset("callroundrobin-8x6x4",
         "8 functions x 6-statement bodies x 4 rounds (method cache)", [] {
           return WorkloadInstance{
               isa::ast::compileBranchy(
                   isa::workloads::callRoundRobin(8, 6, 4)),
               singleInput()};
         });
}

WorkloadRegistry& WorkloadRegistry::instance() {
  static WorkloadRegistry registry;
  return registry;
}

void WorkloadRegistry::add(Workload workload) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto name = workload.name;
  if (!workloads_.emplace(name, std::move(workload)).second) {
    throw std::invalid_argument("duplicate workload: " + name);
  }
}

const Workload* WorkloadRegistry::find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = workloads_.find(name);
  return it == workloads_.end() ? nullptr : &it->second;
}

WorkloadInstance WorkloadRegistry::make(const std::string& name) const {
  const Workload* w = find(name);
  if (w == nullptr) throw std::invalid_argument("unknown workload: " + name);
  return w->make();
}

std::vector<std::string> WorkloadRegistry::names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(workloads_.size());
  for (const auto& [name, w] : workloads_) out.push_back(name);
  return out;
}

}  // namespace pred::study
