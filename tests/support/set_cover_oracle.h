// Exact minimum set cover by subset enumeration — the test oracle behind
// the SCBG approximation checks (greedy within H(max set size) of optimal).
// Cost is 2^sets, so it refuses instances with more than `max_sets` sets.
#pragma once

#include <cstdint>
#include <vector>

#include "util/bitset.h"
#include "util/error.h"

namespace lcrb::statcheck {

struct CoverInstance {
  std::uint32_t universe_size = 0;
  /// Each set lists element ids in [0, universe_size); duplicates allowed.
  std::vector<std::vector<std::uint32_t>> sets;
};

struct CoverResult {
  std::vector<std::uint32_t> chosen;  ///< indices into the instance's sets
  std::uint32_t covered = 0;          ///< elements covered by the chosen sets
  bool complete = false;              ///< covered == universe_size
};

/// Smallest complete cover, lowest mask on ties. When no complete cover
/// exists, reports every set and the elements they cover together.
inline CoverResult exact_set_cover(const CoverInstance& inst,
                                   std::size_t max_sets = 24) {
  for (const auto& s : inst.sets) {
    for (std::uint32_t e : s) {
      LCRB_REQUIRE(e < inst.universe_size, "set element outside universe");
    }
  }
  LCRB_REQUIRE(inst.sets.size() <= max_sets,
               "exact_set_cover: instance too large");
  const auto m = static_cast<std::uint32_t>(inst.sets.size());
  auto cover_of = [&](std::uint64_t mask) {
    DynamicBitset covered(inst.universe_size);
    std::uint32_t count = 0;
    for (std::uint32_t i = 0; i < m; ++i) {
      if (!(mask >> i & 1)) continue;
      for (std::uint32_t e : inst.sets[i]) count += covered.set_if_clear(e);
    }
    return count;
  };

  CoverResult best;
  bool found = false;
  for (std::uint64_t mask = 0; mask < (1ULL << m); ++mask) {
    const auto picked = static_cast<std::size_t>(__builtin_popcountll(mask));
    if (found && picked >= best.chosen.size()) continue;
    if (cover_of(mask) != inst.universe_size) continue;
    best.chosen.clear();
    for (std::uint32_t i = 0; i < m; ++i) {
      if (mask >> i & 1) best.chosen.push_back(i);
    }
    best.covered = inst.universe_size;
    best.complete = true;
    found = true;
  }
  if (!found) {
    const std::uint64_t all = m == 0 ? 0 : (~0ULL >> (64 - m));
    for (std::uint32_t i = 0; i < m; ++i) best.chosen.push_back(i);
    best.covered = cover_of(all);
  }
  return best;
}

/// H(k) = 1 + 1/2 + ... + 1/k, the greedy set-cover ratio for sets of size
/// at most k.
inline double harmonic(std::size_t k) {
  double h = 0.0;
  for (std::size_t i = 1; i <= k; ++i) h += 1.0 / static_cast<double>(i);
  return h;
}

}  // namespace lcrb::statcheck
