// state_key_test.cpp — The state-axis collapse key (exp/engine.h): the
// projection of a cache snapshot onto a trace's footprint
// (cache::PackedCacheState::project) and the models' observableKey must be
// EXACT — states with equal keys replay every trace of the footprint to
// equal times — and must ENGAGE — states that differ only where the trace
// cannot look share a key.  The oracle is PackedCacheSim / timePacked
// itself: no test here reads the key's encoding, only what it equates.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "cache/packed.h"
#include "cache/set_assoc.h"
#include "exp/engine.h"
#include "exp/platform.h"
#include "exp/replay.h"
#include "exp/trace_store.h"
#include "study/workloads.h"

namespace pred {
namespace {

using cache::CacheFootprint;
using cache::CacheGeometry;
using cache::PackedCacheState;
using cache::Policy;

/// The presets whose models key their states.
const std::vector<std::string> kKeyedPresets = {
    "inorder-lru",        "inorder-fifo", "inorder-plru",
    "inorder-lru-icache", "ooo-lru",      "ooo-fifo"};

/// An empty (all ways invalid) snapshot.
PackedCacheState emptyState(Policy policy, CacheGeometry g) {
  return cache::SetAssocCache(g, policy, cache::CacheTiming{1, 10}).pack();
}

/// Puts `tag` into way `way` of set `set`, valid unless told otherwise
/// (an invalid way keeps its stale tag).
void put(PackedCacheState& s, std::size_t set, int way, std::int64_t tag,
         bool valid = true) {
  const auto ways = static_cast<std::size_t>(s.geometry.ways);
  s.tags[set * ways + static_cast<std::size_t>(way)] = tag;
  const std::uint64_t bit = std::uint64_t{1} << way;
  s.valid[set] = valid ? (s.valid[set] | bit) : (s.valid[set] & ~bit);
}

/// The LRU metadata word of a recency order (most recent first).
std::uint64_t lruWord(const std::vector<int>& order) {
  std::uint64_t word = 0;
  for (std::size_t k = 0; k < order.size(); ++k) {
    word |= static_cast<std::uint64_t>(order[k]) << (4 * k);
  }
  return word;
}

std::vector<std::int64_t> keyOf(const PackedCacheState& s,
                                const CacheFootprint& fp) {
  std::vector<std::int64_t> key;
  s.project(fp, key);
  return key;
}

/// Total latency of replaying `trace` from `s` — the oracle.
cache::Cycles replay(const PackedCacheState& s,
                     const std::vector<std::int64_t>& trace) {
  thread_local cache::PackedCacheSim sim;
  sim.load(s);
  cache::Cycles total = 0;
  for (const std::int64_t a : trace) total += sim.access(a).latency;
  return total;
}

CacheFootprint footprintOf(const CacheGeometry& g,
                           const std::vector<std::int64_t>& words) {
  CacheFootprint fp;
  EXPECT_TRUE(fp.build(g, words));
  return fp;
}

// ------------------------------------------------------------ projection

TEST(StateKey, EqualProjectionsReplayEqualOnRandomSnapshots) {
  // Two sets of two ways, one word per line: set 0 holds even lines, set
  // 1 odd ones.  Three footprint lines per set (more than its ways, so
  // recency, FIFO order and fills all matter), two outside it.  Over
  // thousands of random snapshots per policy — stale tags in invalid
  // ways, partly filled sets, any metadata — every pair of snapshots with
  // equal projections must replay every trace of up to three footprint
  // accesses to equal latencies.
  const CacheGeometry g{1, 2, 2};
  const std::vector<std::int64_t> footprint = {-2, 0, 2, 1, 3, 5};
  const std::vector<std::vector<std::int64_t>> universe = {
      {-4, -2, 0, 2, 4}, {-3, 1, 3, 5, 7}};
  std::vector<std::vector<std::int64_t>> traces = {{}};
  for (int len = 1; len <= 3; ++len) {
    std::vector<std::vector<std::int64_t>> longer;
    for (const auto& t : traces) {
      if (static_cast<int>(t.size()) != len - 1) continue;
      for (const std::int64_t w : footprint) {
        auto u = t;
        u.push_back(w);
        longer.push_back(std::move(u));
      }
    }
    traces.insert(traces.end(), longer.begin(), longer.end());
  }
  const CacheFootprint fp = footprintOf(g, footprint);
  std::mt19937_64 rng(7);
  for (const Policy policy :
       {Policy::LRU, Policy::FIFO, Policy::PLRU, Policy::MRU}) {
    std::map<std::vector<std::int64_t>, std::vector<PackedCacheState>> byKey;
    for (int n = 0; n < 1500; ++n) {
      PackedCacheState s = emptyState(policy, g);
      for (std::size_t set = 0; set < 2; ++set) {
        std::vector<std::int64_t> lines = universe[set];
        std::shuffle(lines.begin(), lines.end(), rng);
        for (int w = 0; w < 2; ++w) {
          const bool valid = rng() % 5 != 0;
          // An invalid way keeps a stale tag: a footprint line, or -1.
          const std::int64_t tag = lines[static_cast<std::size_t>(w)];
          put(s, set, w, valid || rng() % 2 ? tag : -1, valid);
        }
        switch (policy) {
          case Policy::LRU:
            s.meta[set] = rng() % 2 ? lruWord({0, 1}) : lruWord({1, 0});
            break;
          case Policy::FIFO:
          case Policy::PLRU:
            s.meta[set] = rng() % 2;
            break;
          case Policy::MRU:
            s.meta[set] = rng() % 3;  // never both bits: the MRU invariant
            break;
          case Policy::RANDOM:
            break;
        }
      }
      byKey[keyOf(s, fp)].push_back(s);
    }
    std::size_t shared = 0;
    for (const auto& [key, states] : byKey) {
      shared += states.size() - 1;
      for (const auto& t : traces) {
        const cache::Cycles want = replay(states.front(), t);
        for (const auto& s : states) {
          ASSERT_EQ(replay(s, t), want)
              << "policy " << static_cast<int>(policy)
              << ": equal projections, different replays";
        }
      }
    }
    // The property is not vacuous: many snapshots share a projection.
    EXPECT_GT(shared, 200u) << static_cast<int>(policy);
  }
}

TEST(StateKey, LinesOutsideTheFootprintShareOnePlaceholder) {
  // Full LRU sets that differ only in lines the trace never touches key
  // equal, whatever those lines' tags and recency.
  const CacheGeometry g{4, 8, 2};
  const CacheFootprint fp = footprintOf(g, {0, 1, 36});  // lines 0 and 9
  PackedCacheState a = emptyState(Policy::LRU, g);
  PackedCacheState b = a;
  put(a, 0, 0, 0);
  put(a, 0, 1, 8);
  a.meta[0] = lruWord({1, 0});
  put(b, 0, 0, 16);
  put(b, 0, 1, 0);
  b.meta[0] = lruWord({0, 1});
  put(a, 1, 0, 17);
  put(a, 1, 1, 25);
  put(b, 1, 0, 33);
  put(b, 1, 1, 41);
  a.meta[1] = lruWord({0, 1});
  b.meta[1] = lruWord({1, 0});
  EXPECT_EQ(keyOf(a, fp), keyOf(b, fp));
  for (const auto& t : std::vector<std::vector<std::int64_t>>{
           {0, 36, 0}, {36, 1, 0}, {1, 36, 36, 0}}) {
    EXPECT_EQ(replay(a, t), replay(b, t));
  }
}

TEST(StateKey, PlaceholderDiffersFromAnInvalidWay) {
  // One 4-way LRU set.  a and b hold footprint line 0 in way 0 and share
  // the recency word; way 3 is invalid in b but holds a line outside the
  // footprint in a.  After two more footprint fills, a's third fill evicts
  // line 0 while b's takes the invalid way: the placeholder is not an
  // invalid way.
  const CacheGeometry g{1, 1, 4};
  const CacheFootprint fp = footprintOf(g, {0, 1, 2, 3});
  PackedCacheState a = emptyState(Policy::LRU, g);
  put(a, 0, 0, 0);
  a.meta[0] = lruWord({3, 0, 1, 2});
  PackedCacheState b = a;
  put(a, 0, 3, 99);
  const std::vector<std::int64_t> trace = {1, 2, 3, 0};
  ASSERT_NE(replay(a, trace), replay(b, trace));
  EXPECT_NE(keyOf(a, fp), keyOf(b, fp));
}

TEST(StateKey, PartlyFilledSetsKeyByPhysicalWayAndMetadata) {
  // A partly filled set fills its lowest invalid way first, so where its
  // valid lines sit matters, and so does its metadata word: under FIFO the
  // same line in another way, or the same way under another pointer, is
  // another state.
  const CacheGeometry g{1, 1, 2};
  const CacheFootprint fp = footprintOf(g, {0, 1, 2});
  const std::vector<std::int64_t> trace = {1, 2, 0};
  PackedCacheState a = emptyState(Policy::FIFO, g);
  PackedCacheState b = a;
  put(a, 0, 0, 0);
  put(b, 0, 1, 0);
  ASSERT_NE(replay(a, trace), replay(b, trace));
  EXPECT_NE(keyOf(a, fp), keyOf(b, fp));
  PackedCacheState c = a;
  c.meta[0] = 1;
  ASSERT_NE(replay(a, trace), replay(c, trace));
  EXPECT_NE(keyOf(a, fp), keyOf(c, fp));
  // Under every projectable policy, the same placement and metadata key
  // equal, and a line outside the footprint in place of the invalid way
  // does not.
  for (const Policy policy :
       {Policy::LRU, Policy::FIFO, Policy::PLRU, Policy::MRU}) {
    PackedCacheState d = emptyState(policy, g);
    put(d, 0, 0, 0);
    PackedCacheState e = d;
    EXPECT_EQ(keyOf(d, fp), keyOf(e, fp));
    put(e, 0, 1, 7);
    EXPECT_NE(keyOf(d, fp), keyOf(e, fp)) << static_cast<int>(policy);
  }
}

TEST(StateKey, LruRanksByRecencyNotByTag) {
  // The same two footprint lines in opposite recency orders: the next fill
  // evicts a different one.
  const CacheGeometry g{1, 1, 2};
  const CacheFootprint fp = footprintOf(g, {0, 1, 2});
  PackedCacheState a = emptyState(Policy::LRU, g);
  put(a, 0, 0, 0);
  put(a, 0, 1, 1);
  PackedCacheState b = a;
  a.meta[0] = lruWord({0, 1});
  b.meta[0] = lruWord({1, 0});
  const std::vector<std::int64_t> trace = {2, 0};
  ASSERT_NE(replay(a, trace), replay(b, trace));
  EXPECT_NE(keyOf(a, fp), keyOf(b, fp));
  // The same recency over swapped ways keys equal.
  PackedCacheState c = emptyState(Policy::LRU, g);
  put(c, 0, 0, 1);
  put(c, 0, 1, 0);
  c.meta[0] = lruWord({1, 0});
  EXPECT_EQ(keyOf(c, fp), keyOf(a, fp));
}

TEST(StateKey, FifoKeysFromTheNextVictim) {
  const CacheGeometry g{1, 1, 3};
  const CacheFootprint fp = footprintOf(g, {0, 1, 2, 3});
  PackedCacheState a = emptyState(Policy::FIFO, g);
  put(a, 0, 0, 0);
  put(a, 0, 1, 1);
  put(a, 0, 2, 2);
  PackedCacheState b = a;
  a.meta[0] = 0;
  b.meta[0] = 1;
  // The same ways, another pointer: 3 evicts 0 in a, 1 in b.
  const std::vector<std::int64_t> trace = {3, 0};
  ASSERT_NE(replay(a, trace), replay(b, trace));
  EXPECT_NE(keyOf(a, fp), keyOf(b, fp));
  // A rotation of a's ways with its pointer rotated along keys equal.
  PackedCacheState c = emptyState(Policy::FIFO, g);
  put(c, 0, 0, 2);
  put(c, 0, 1, 0);
  put(c, 0, 2, 1);
  c.meta[0] = 1;
  EXPECT_EQ(keyOf(c, fp), keyOf(a, fp));
  EXPECT_EQ(replay(c, trace), replay(a, trace));
}

TEST(StateKey, AnInvalidWayHoldingAFootprintTagIsNoHit) {
  const CacheGeometry g{1, 1, 2};
  const CacheFootprint fp = footprintOf(g, {0, 1});
  PackedCacheState a = emptyState(Policy::LRU, g);
  PackedCacheState b = a;
  put(a, 0, 0, 0);
  put(b, 0, 0, 0, /*valid=*/false);
  ASSERT_NE(replay(a, {0}), replay(b, {0}));
  EXPECT_NE(keyOf(a, fp), keyOf(b, fp));
}

TEST(StateKey, EveryTouchedSetIsKeyed) {
  // Footprint lines in sets 0 and 3; the states differ only in set 3.
  const CacheGeometry g{4, 8, 2};
  const CacheFootprint fp = footprintOf(g, {0, 12});
  ASSERT_EQ(fp.sets, (std::vector<std::size_t>{0, 3}));
  PackedCacheState a = emptyState(Policy::LRU, g);
  put(a, 0, 0, 0);
  PackedCacheState b = a;
  put(a, 3, 0, 3);
  ASSERT_NE(replay(a, {0, 12}), replay(b, {0, 12}));
  EXPECT_NE(keyOf(a, fp), keyOf(b, fp));
}

TEST(StateKey, NegativeWordsMapLikeTheSimOrDecline) {
  // PackedCacheSim divides a negative word: -1..-3 share line 0 (set 0)
  // with 0..3, and -32 is line -8, set 0 again; -4 is line -1, set -1,
  // which no footprint can key.
  const CacheGeometry g{4, 8, 2};
  CacheFootprint fp;
  ASSERT_TRUE(fp.build(g, {-1, 2, -32}));
  EXPECT_EQ(fp.sets, (std::vector<std::size_t>{0}));
  EXPECT_EQ(fp.lines, (std::vector<std::int64_t>{-8, 0}));
  EXPECT_FALSE(CacheFootprint().build(g, {3, -4}));

  PackedCacheState a = emptyState(Policy::LRU, g);
  put(a, 0, 0, -8);
  put(a, 0, 1, 5 * 8);  // outside the footprint
  a.meta[0] = lruWord({1, 0});
  PackedCacheState b = a;
  put(b, 0, 1, 6 * 8);
  EXPECT_EQ(keyOf(a, fp), keyOf(b, fp));
  const std::vector<std::int64_t> trace = {-32, -1, 2, -32};
  EXPECT_EQ(replay(a, trace), replay(b, trace));
  PackedCacheState c = a;
  put(c, 0, 0, 8);  // line 8 is not line -8
  ASSERT_NE(replay(c, trace), replay(a, trace));
  EXPECT_NE(keyOf(c, fp), keyOf(a, fp));

  // A model declines a trace class whose footprint leaves the sets.
  const auto w = study::WorkloadRegistry::instance().make("sum-16");
  const auto model =
      exp::PlatformRegistry::instance().make("inorder-lru", w.program);
  exp::ReplayProgram rp;
  rp.dataAddr = {-1, 2, -32};
  EXPECT_NE(model->observableKey(rp), nullptr);
  rp.dataAddr.push_back(-5);
  EXPECT_EQ(model->observableKey(rp), nullptr);
}

// ---------------------------------------------------------------- models

/// The groups of states [qBegin, qEnd) under `key`, checked to partition
/// the range in the documented order.
std::vector<std::vector<std::size_t>> groupsOf(const exp::ObservableKey& key,
                                               std::size_t qBegin,
                                               std::size_t qEnd) {
  const std::size_t n = qEnd - qBegin;
  std::vector<std::uint32_t> members(n), starts(n + 1);
  const std::uint32_t count =
      exp::groupStates(key, qBegin, n, members.data(), starts.data());
  std::vector<std::vector<std::size_t>> groups;
  EXPECT_EQ(starts[0], 0u);
  EXPECT_EQ(starts[count], n);
  for (std::uint32_t g = 0; g < count; ++g) {
    EXPECT_LT(starts[g], starts[g + 1]) << "empty group";
    groups.emplace_back(members.begin() + starts[g],
                        members.begin() + starts[g + 1]);
    EXPECT_TRUE(std::is_sorted(groups.back().begin(), groups.back().end()));
    if (g > 0) EXPECT_LT(groups[g - 1].front(), groups[g].front());
  }
  std::vector<std::size_t> all(members.begin(), members.end());
  std::sort(all.begin(), all.end());
  for (std::size_t r = 0; r < n; ++r) EXPECT_EQ(all[r], qBegin + r);
  return groups;
}

TEST(StateKey, OooOccupancyIsPartOfTheKey) {
  // A trace class with no memory op observes no cache line, so ooo-fifo's
  // states group by their occupancy triple alone — and the occupancy moves
  // the time.
  const auto w = study::WorkloadRegistry::instance().make("sum-16");
  exp::PlatformOptions opts;
  opts.numStates = 64;
  opts.dataGeom = CacheGeometry{4, 64, 4};
  const auto model =
      exp::PlatformRegistry::instance().make("ooo-fifo", w.program, opts);
  exp::ReplayProgram rp;
  exp::ReplayOp mul;
  mul.cls = static_cast<std::uint8_t>(isa::LatencyClass::Multiply);
  exp::ReplayOp jump;
  jump.cls = static_cast<std::uint8_t>(isa::LatencyClass::Control);
  rp.ops = {mul, jump, mul};
  const auto key = model->observableKey(rp);
  ASSERT_NE(key, nullptr);
  const auto groups = groupsOf(*key, 0, model->numStates());
  // Labels end in "+occ" and the (iu0, iu1, lsu) busy cycles.
  std::set<std::string> occupancies;
  for (std::size_t q = 0; q < model->numStates(); ++q) {
    const std::string label = model->stateLabel(q);
    occupancies.insert(label.substr(label.find("+occ")));
  }
  EXPECT_EQ(groups.size(), occupancies.size());
  std::set<exp::Cycles> times;
  for (const auto& g : groups) {
    const exp::Cycles t = model->timePacked(g.front(), rp);
    times.insert(t);
    for (const std::size_t q : g) EXPECT_EQ(model->timePacked(q, rp), t);
  }
  EXPECT_GT(times.size(), 1u);
}

TEST(StateKey, ICacheStatesKeyOverTheFetchFootprint) {
  // Three in-order states with one (empty) data cache: the I-caches of 0
  // and 1 differ on the fetched lines, those of 0 and 2 only elsewhere.
  const CacheGeometry g{4, 8, 2};
  const cache::CacheTiming dt{1, 10}, it{0, 6};
  auto icache = [&](const std::vector<std::int64_t>& warm) {
    cache::SetAssocCache c(g, Policy::LRU, it);
    c.warmUp(warm);
    return c;
  };
  std::vector<exp::InOrderSnapshotModel::State> states;
  for (const auto& warm : std::vector<std::vector<std::int64_t>>{
           {0, 4}, {0, 36}, {0, 4, 200}}) {
    states.push_back({cache::SetAssocCache(g, Policy::LRU, dt), icache(warm),
                      nullptr, "s"});
  }
  const exp::InOrderSnapshotModel model("icache", {}, std::move(states));
  exp::ReplayProgram rp;
  rp.fetchPc = {0, 1, 2, 3, 4, 5, 6, 7, 4, 5};
  const auto key = model.observableKey(rp);
  ASSERT_NE(key, nullptr);
  std::vector<std::int64_t> k0, k1, k2;
  key->append(0, k0);
  key->append(1, k1);
  key->append(2, k2);
  ASSERT_NE(model.timePacked(0, rp), model.timePacked(1, rp));
  EXPECT_NE(k0, k1);
  EXPECT_EQ(k0, k2);
  EXPECT_EQ(model.timePacked(0, rp), model.timePacked(2, rp));
}

TEST(StateKey, ModelsWithStateTheyCannotKeyDecline) {
  const auto w = study::WorkloadRegistry::instance().make("bubblesort-8");
  exp::PlatformOptions opts;
  opts.numStates = 16;
  const exp::ReplayProgram rp =
      exp::compileTrace(isa::FunctionalCore::run(w.program, w.inputs[0]).trace);
  for (const auto& name : exp::PlatformRegistry::instance().names()) {
    const auto model =
        exp::PlatformRegistry::instance().make(name, w.program, opts);
    const bool keyed = std::find(kKeyedPresets.begin(), kKeyedPresets.end(),
                                 name) != kKeyedPresets.end();
    EXPECT_EQ(model->observableKey(rp) != nullptr, keyed) << name;
  }
}

TEST(StateKey, GroupsAreExactOnEveryRegistryWorkloadAndKeyedPreset) {
  // The direct oracle: for every registry workload, keyed preset and trace
  // class at 64 states (where states repeat), the groups partition the
  // q-range — the whole range and a shard band — every member replays to
  // its representative's time, members share the representative's key,
  // and representatives' keys differ.
  exp::PlatformOptions opts;
  opts.numStates = 64;
  std::size_t cells = 0, groupsTotal = 0;
  for (const auto& wname : study::WorkloadRegistry::instance().names()) {
    const auto w = study::WorkloadRegistry::instance().make(wname);
    const exp::TraceStore::ProgramKey program(w.program);
    for (const auto& pname : kKeyedPresets) {
      const auto model =
          exp::PlatformRegistry::instance().make(pname, w.program, opts);
      exp::TraceStore store;
      std::set<std::uint32_t> seen;
      for (const auto& input : w.inputs) {
        const auto ref =
            store.entryRefFor(program, input, model->packedForm());
        if (!seen.insert(ref.classId).second) continue;
        const auto key = model->observableKey(*ref.compiled);
        ASSERT_NE(key, nullptr) << wname << "/" << pname;
        const std::size_t nQ = model->numStates();
        for (const auto& [qBegin, qEnd] :
             std::vector<std::pair<std::size_t, std::size_t>>{{0, nQ},
                                                               {5, 41}}) {
          const auto groups = groupsOf(*key, qBegin, qEnd);
          std::set<std::vector<std::int64_t>> repKeys;
          for (const auto& g : groups) {
            std::vector<std::int64_t> rep;
            key->append(g.front(), rep);
            EXPECT_TRUE(repKeys.insert(rep).second) << "split key";
            const exp::Cycles t = model->timePacked(g.front(), *ref.compiled);
            for (const std::size_t q : g) {
              std::vector<std::int64_t> mine;
              key->append(q, mine);
              EXPECT_EQ(mine, rep);
              ASSERT_EQ(model->timePacked(q, *ref.compiled), t)
                  << wname << "/" << pname << " q" << q << " vs q"
                  << g.front();
            }
          }
          cells += qEnd - qBegin;
          groupsTotal += groups.size();
        }
      }
    }
  }
  // The key engages: states repeat at 64, so groups are far fewer.
  EXPECT_LT(2 * groupsTotal, cells);
}

}  // namespace
}  // namespace pred
