#include "cache/packed.h"

#include <algorithm>
#include <utility>

namespace pred::cache {

void PackedCacheSim::load(const PackedCacheState& snapshot) {
  geometry_ = snapshot.geometry;
  policy_ = snapshot.policy;
  timing_ = snapshot.timing;
  ways_ = snapshot.geometry.ways;
  rng_ = snapshot.rng;
  pow2_ = detail::isPow2(geometry_.lineWords) && detail::isPow2(geometry_.numSets);
  lineShift_ = pow2_ ? std::countr_zero(
                           static_cast<std::uint64_t>(geometry_.lineWords))
                     : 0;
  setMask_ = pow2_ ? geometry_.numSets - 1 : 0;
  tags_.assign(snapshot.tags.begin(), snapshot.tags.end());
  valid_.assign(snapshot.valid.begin(), snapshot.valid.end());
  meta_.assign(snapshot.meta.begin(), snapshot.meta.end());
  hits_ = 0;
  misses_ = 0;
}

void PackedCacheSim::resetContents(const PackedCacheState& snapshot) {
  const std::uint64_t rng = rng_;
  load(snapshot);
  rng_ = rng;
}

bool CacheFootprint::build(const CacheGeometry& g,
                           std::vector<std::int64_t> words) {
  sets.clear();
  setBegin.clear();
  lines.clear();
  // A trace repeats few distinct words many times: drop the repeats first.
  std::sort(words.begin(), words.end());
  words.erase(std::unique(words.begin(), words.end()), words.end());
  // Map every word as PackedCacheSim::access does: the shift form it takes
  // for non-negative words equals this division form.
  std::vector<std::pair<std::int64_t, std::int64_t>> setLine;
  setLine.reserve(words.size());
  for (const std::int64_t w : words) {
    const std::int64_t set = g.setOf(w);
    if (set < 0 || set >= g.numSets) return false;
    setLine.emplace_back(set, g.lineOf(w));
  }
  std::sort(setLine.begin(), setLine.end());
  setLine.erase(std::unique(setLine.begin(), setLine.end()), setLine.end());
  for (const auto& [set, line] : setLine) {
    const auto s = static_cast<std::size_t>(set);
    if (sets.empty() || sets.back() != s) {
      sets.push_back(s);
      setBegin.push_back(lines.size());
    }
    lines.push_back(line);
  }
  setBegin.push_back(lines.size());
  return true;
}

void PackedCacheState::project(const CacheFootprint& fp,
                               std::vector<std::int64_t>& key) const {
  const auto ways = static_cast<std::size_t>(geometry.ways);
  const std::uint64_t full = (std::uint64_t{1} << ways) - 1;
  for (std::size_t k = 0; k < fp.sets.size(); ++k) {
    const std::size_t set = fp.sets[k];
    const std::int64_t* first = fp.lines.data() + fp.setBegin[k];
    const std::int64_t* last = fp.lines.data() + fp.setBegin[k + 1];
    const std::int64_t* setTags = tags.data() + set * ways;
    const std::uint64_t vmask = valid[set];
    const auto code = [&](std::size_t w) -> std::int64_t {
      if (((vmask >> w) & 1) == 0) return 0;
      for (const std::int64_t* l = first; l != last; ++l) {
        if (*l == setTags[w]) return 2 + (l - first);
      }
      return 1;
    };
    const std::uint64_t word = meta[set];
    if ((vmask & full) == full && policy == Policy::LRU) {
      for (std::size_t r = 0; r < ways; ++r) {
        key.push_back(code((word >> (4 * r)) & 0xF));
      }
    } else if ((vmask & full) == full && policy == Policy::FIFO) {
      for (std::size_t r = 0; r < ways; ++r) {
        key.push_back(code((word + r) % ways));
      }
    } else {
      for (std::size_t w = 0; w < ways; ++w) key.push_back(code(w));
      key.push_back(static_cast<std::int64_t>(word));
    }
  }
}

}  // namespace pred::cache
