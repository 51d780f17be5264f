// Competitive weighted-cascade (WC) model traits: the frontier family with
// the classic WC arc probability p(u, v) = 1/d_in(v) (Kempe et al.'s
// weighted cascade), reusing the IC live-edge coin hash so each arc is
// decided once per sample seed.
//
// This file is also the traits layer's extensibility proof: everything WC
// needs — forward simulate, Monte-Carlo, realization cache, RIS reverse
// sets, CLI/service support — falls out of binding the coin below plus the
// DiffusionModel::kWc enum entry. See docs/architecture.md ("adding a
// model") for the recipe.
#pragma once

#include <cstdint>

#include "diffusion/frontier_traits.h"
#include "diffusion/ic_traits.h"
#include "diffusion/kernel.h"

namespace lcrb {

struct WcTraits : LiveEdgeTraits<WcTraits> {
  static constexpr DiffusionModel kModel = DiffusionModel::kWc;
  static constexpr const char* kName = "WC";
  static constexpr bool kDeterministic = false;
  static constexpr bool kSupportsReverse = true;

  /// Arc (u, v) is live with probability 1/d_in(v); the target of an
  /// existing arc always has d_in >= 1.
  struct Coin {
    std::uint64_t seed;
    template <class G>
    bool operator()(const G& g, NodeId u, NodeId v) const {
      return ic_arc_live(seed, u, v,
                         1.0 / static_cast<double>(g.in_degree(v)));
    }
  };

  static Coin coin(std::uint64_t seed, const RealizationParams&) {
    return {seed};
  }

  /// Expected live arcs: one per node with in-edges (sum over v of
  /// d_in(v) * 1/d_in(v)).
  template <class G>
  static std::size_t live_arc_hint(const G& g, const RealizationParams&) {
    return g.num_nodes();
  }
};

}  // namespace lcrb
