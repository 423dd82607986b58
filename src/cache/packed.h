#pragma once
// packed.h — Flat, memcpy-able snapshots of set-associative cache state.
//
// The exhaustive Q×I loops replay every trace against every initial cache
// state.  SetAssocCache carries nested vector<Way>/vector<int>/vector<bool>
// structures per set, so "start from snapshot q" deep-copies dozens of heap
// blocks per matrix cell.  A PackedCacheState lowers the same information
// into three flat arrays — tags indexed by set×way, one valid bitmask per
// set, and ONE policy-metadata word per set — so loading a snapshot into a
// PackedCacheSim is a straight element copy into reusable buffers and the
// per-access policy update is bit arithmetic on a single word.
//
// Metadata word layout (per set), by policy:
//   LRU    nibble k (bits [4k, 4k+4)) = the way at recency rank k, rank 0 =
//          most recently used — the order vector as a packed permutation
//   FIFO   the next-victim pointer
//   PLRU   bit k = tree node k of the victim-search heap (root = bit 0)
//   MRU    bit w = the MRU bit of way w
//   RANDOM unused (the xorshift state is per-cache, not per-set)
//
// SetAssocCache::pack()/unpack() (set_assoc.h) are lossless: a round trip
// preserves stateSignature() and all future access behavior, including the
// seeded RANDOM replacement stream.  PackedCacheSim reproduces
// SetAssocCache::access hit-for-hit and latency-for-latency (asserted
// across all policies in tests/replay_test.cpp).
//
// The projection (PackedCacheState::project) is the part of a snapshot a
// trace can observe, for the engine's state-axis collapse (exp/engine.h).
// A CacheFootprint lists the lines a trace's words map to, grouped by set,
// mapped exactly as PackedCacheSim::access maps them.  The projection walks
// the touched sets in ascending order and lists each set's ways in policy
// order:
//   LRU, full set    by recency rank (rank 0 first);
//   FIFO, full set   from the next-victim pointer on;
//   otherwise        by physical way (partly filled sets, PLRU, MRU),
//                    followed by the set's metadata word.
// A way is coded 0 when invalid, 1 when it holds a line outside the
// footprint (the placeholder), and 2 + j when it holds the set's j-th
// footprint line.  The placeholder must differ from an invalid way,
// because fills prefer invalid ways; it can never hit, so renaming every
// such line to it changes no access.  A full set codes no 0 in its ranked
// list and a partly filled one codes at least one, so the codes decode
// uniquely and two snapshots with equal projections (and equal geometry,
// policy and timing) replay every trace of the footprint to the same hits,
// misses and latencies.  RANDOM keeps its rng per cache, not per set, and
// the rng is part of the state, so it has no projection (projectable).

#include <bit>
#include <cstdint>
#include <vector>

#include "cache/geometry.h"
#include "cache/policy.h"

namespace pred::cache {

namespace detail {
inline std::uint64_t xorshift64(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}
inline bool isPow2(std::int64_t x) { return x > 0 && (x & (x - 1)) == 0; }
}  // namespace detail

/// The LRU permutation packs 4 bits per way into one 64-bit word.
constexpr int kMaxPackedWays = 16;

/// True when a cache of this geometry can be packed (associativity fits the
/// per-set metadata word).
inline bool packable(const CacheGeometry& g) {
  return g.ways > 0 && g.ways <= kMaxPackedWays;
}

/// True when a cache of this policy has a projection (see the file
/// comment): every policy but RANDOM.
inline bool projectable(Policy p) { return p != Policy::RANDOM; }

/// The lines a trace's words map to in one cache geometry, grouped by set.
/// Built once per trace, so projecting a state costs O(touched sets x
/// ways) with no sort and no allocation.
struct CacheFootprint {
  std::vector<std::size_t> sets;      ///< touched sets, ascending
  std::vector<std::size_t> setBegin;  ///< lines of sets[k]: [setBegin[k],
                                      ///< setBegin[k + 1]); size sets + 1
  std::vector<std::int64_t> lines;    ///< distinct, grouped by set

  /// The footprint of `words` (any order, repeats allowed) under `g`.
  /// Returns false, leaving the footprint unusable, when a word maps
  /// outside [0, numSets) — PackedCacheSim::access divides a negative
  /// address, and its set index can come out negative.
  bool build(const CacheGeometry& g, std::vector<std::int64_t> words);
};

/// Immutable flat snapshot of one cache's complete state.
struct PackedCacheState {
  CacheGeometry geometry{};
  Policy policy = Policy::LRU;
  CacheTiming timing{};
  std::uint64_t rng = 1;             ///< RANDOM policy xorshift state
  std::vector<std::int64_t> tags;    ///< numSets×ways, row-major by set
  std::vector<std::uint64_t> valid;  ///< per set, bit w = way w valid
  std::vector<std::uint64_t> meta;   ///< per set, layout per policy (above)

  /// Appends this snapshot's projection onto `fp` (see the file comment)
  /// to `key`.  `fp` must be built for this geometry and the policy must
  /// be projectable.
  void project(const CacheFootprint& fp, std::vector<std::int64_t>& key) const;
};

/// Mutable replay engine over packed snapshots.  One sim is meant to be
/// reused across many matrix cells: load() reconfigures the shape only when
/// it changes and otherwise just copies the flat arrays, so the steady-state
/// per-cell setup cost is three memcpys and no allocation.
class PackedCacheSim {
 public:
  /// (Re)initializes the sim to `snapshot`; zeroes the hit/miss counters
  /// (the packed equivalent of constructing a fresh cache from a snapshot).
  void load(const PackedCacheState& snapshot);

  /// SetAssocCache::reset() analogue: restores the snapshot's contents,
  /// metadata, and counters like load(), but keeps the current RANDOM
  /// xorshift state — reset() never reseeds the rng, so a replay that
  /// resets mid-stream (e.g. preemption trashing the cache) must not
  /// either.
  void resetContents(const PackedCacheState& snapshot);

  /// One access with SetAssocCache::access semantics (allocate-on-miss,
  /// policy touch on hit and fill).  Defined inline below — this is the
  /// innermost statement of the exhaustive Q×I loop.
  AccessResult access(std::int64_t wordAddr);

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  int chooseVictim(std::size_t set);
  void touch(std::size_t set, int way);

  CacheGeometry geometry_{};
  Policy policy_ = Policy::LRU;
  CacheTiming timing_{};
  int ways_ = 0;
  std::uint64_t rng_ = 1;
  /// Strength-reduced address mapping for power-of-two line size and set
  /// count (the common geometries): line = addr >> lineShift_, set = line &
  /// setMask_.  Exact for non-negative addresses only, so access() falls
  /// back to the division form on addr < 0 — bit-identical everywhere.
  bool pow2_ = false;
  int lineShift_ = 0;
  std::int64_t setMask_ = 0;
  std::vector<std::int64_t> tags_;
  std::vector<std::uint64_t> valid_;
  std::vector<std::uint64_t> meta_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

inline void PackedCacheSim::touch(std::size_t set, int way) {
  switch (policy_) {
    case Policy::LRU: {
      // Move `way` to recency rank 0, shifting the ranks above its old
      // position up by one nibble — the packed form of erase+insert-front.
      const std::uint64_t word = meta_[set];
      int k = 0;
      while (((word >> (4 * k)) & 0xF) != static_cast<std::uint64_t>(way)) {
        ++k;
      }
      const std::uint64_t below = word & ((std::uint64_t{1} << (4 * k)) - 1);
      const std::uint64_t above =
          k + 1 >= kMaxPackedWays
              ? 0
              : word & ~((std::uint64_t{1} << (4 * (k + 1))) - 1);
      meta_[set] = above | (below << 4) | static_cast<std::uint64_t>(way);
      break;
    }
    case Policy::FIFO:
      break;  // hits do not update FIFO state
    case Policy::PLRU: {
      // Set bits along the root-to-leaf path to point away from `way`.
      std::uint64_t bits = meta_[set];
      int node = way + ways_ - 1;  // heap leaf index (root = 0)
      while (node > 0) {
        const int parent = (node - 1) / 2;
        const bool isLeftChild = (node == 2 * parent + 1);
        if (isLeftChild) {
          bits |= std::uint64_t{1} << parent;
        } else {
          bits &= ~(std::uint64_t{1} << parent);
        }
        node = parent;
      }
      meta_[set] = bits;
      break;
    }
    case Policy::MRU: {
      std::uint64_t bits = meta_[set] | (std::uint64_t{1} << way);
      const std::uint64_t all = (std::uint64_t{1} << ways_) - 1;
      if (bits == all) bits = std::uint64_t{1} << way;
      meta_[set] = bits;
      break;
    }
    case Policy::RANDOM:
      break;  // stateless
  }
}

inline int PackedCacheSim::chooseVictim(std::size_t set) {
  switch (policy_) {
    case Policy::LRU:
      return static_cast<int>((meta_[set] >> (4 * (ways_ - 1))) & 0xF);
    case Policy::FIFO: {
      const int victim = static_cast<int>(meta_[set]);
      meta_[set] = static_cast<std::uint64_t>((victim + 1) % ways_);
      return victim;
    }
    case Policy::PLRU: {
      const std::uint64_t bits = meta_[set];
      int node = 0;
      while (node < ways_ - 1) {
        node = ((bits >> node) & 1) ? 2 * node + 2 : 2 * node + 1;
      }
      return node - (ways_ - 1);
    }
    case Policy::MRU: {
      const int w = std::countr_one(meta_[set]);
      return w < ways_ ? w : 0;  // all-set is unreachable by MRU invariant
    }
    case Policy::RANDOM:
      return static_cast<int>(detail::xorshift64(rng_) %
                              static_cast<std::uint64_t>(ways_));
  }
  return 0;
}

inline AccessResult PackedCacheSim::access(std::int64_t wordAddr) {
  std::int64_t line, setIdx;
  if (pow2_ && wordAddr >= 0) {
    line = wordAddr >> lineShift_;
    setIdx = line & setMask_;
  } else {
    line = geometry_.lineOf(wordAddr);
    setIdx = geometry_.setOf(wordAddr);
  }
  const std::int64_t tag = line;  // tagOf == lineOf (geometry.h)
  const auto set = static_cast<std::size_t>(setIdx);
  const std::size_t base = set * static_cast<std::size_t>(ways_);
  const std::uint64_t vmask = valid_[set];
  for (int w = 0; w < ways_; ++w) {
    if (((vmask >> w) & 1) &&
        tags_[base + static_cast<std::size_t>(w)] == tag) {
      touch(set, w);
      ++hits_;
      return AccessResult{true, timing_.hitLatency};
    }
  }
  // Prefer an invalid way in all policies (mirrors SetAssocCache).
  int victim = std::countr_one(vmask);
  if (victim >= ways_) victim = chooseVictim(set);
  tags_[base + static_cast<std::size_t>(victim)] = tag;
  valid_[set] |= std::uint64_t{1} << victim;
  touch(set, victim);
  ++misses_;
  return AccessResult{false, timing_.missLatency};
}

}  // namespace pred::cache
