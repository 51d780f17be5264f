// Competitive Independent Cascade (extension model, related work [14][15]):
// the frontier family with the classic live-edge coupling — arc (u, v) is
// live with one homogeneous probability, decided once per sample by hashing
// (seed, u, v). Both cascades then race along live arcs as synchronized BFS
// with P-priority ties, which matches Budak et al.'s "campaign with higher
// priority" EIL setting and gives deterministic, low-variance marginal
// gains. Forward, cache and reverse all come from frontier_traits.h; this
// file only binds the coin.
#pragma once

#include <cstdint>

#include "diffusion/frontier_traits.h"
#include "diffusion/kernel.h"
#include "util/check.h"

namespace lcrb {

/// The stateless live-edge coin for arc (u, v): identical across protector-
/// set variations of the same sample, so forward runs, cache builds and RR
/// draws realize the same live subgraph. Defined inline: it sits on the
/// innermost loop of every one of them.
inline bool ic_arc_live(std::uint64_t seed, NodeId u, NodeId v, double p) {
  std::uint64_t x = seed ^ (static_cast<std::uint64_t>(u) << 32) ^ v;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return static_cast<double>(x >> 11) * 0x1.0p-53 < p;
}

struct IcTraits : LiveEdgeTraits<IcTraits> {
  static constexpr DiffusionModel kModel = DiffusionModel::kIc;
  static constexpr const char* kName = "IC";
  static constexpr bool kDeterministic = false;
  static constexpr bool kSupportsReverse = true;

  struct Coin {
    std::uint64_t seed;
    double p;
    template <class G>
    bool operator()(const G&, NodeId u, NodeId v) const {
      return ic_arc_live(seed, u, v, p);
    }
  };

  /// The one place the forward path reads ic_edge_prob, so it is checked
  /// here.
  static Coin coin(std::uint64_t seed, const RealizationParams& p) {
    LCRB_REQUIRE(p.ic_edge_prob >= 0.0 && p.ic_edge_prob <= 1.0,
                 "edge_prob must be in [0,1]");
    return {seed, p.ic_edge_prob};
  }

  template <class G>
  static std::size_t live_arc_hint(const G& g, const RealizationParams& p) {
    return static_cast<std::size_t>(static_cast<double>(g.num_edges()) *
                                    p.ic_edge_prob * 1.1);
  }
};

}  // namespace lcrb
