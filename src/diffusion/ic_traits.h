// Competitive-IC model traits (extension model, related work [14][15]): the
// frontier family with the classic live-edge coupling — arc (u, v) is live
// with one homogeneous probability, decided once per sample by hashing
// (seed, u, v). Forward, cache and reverse all come from frontier_traits.h;
// this file only binds the coin.
#pragma once

#include <cstdint>

#include "diffusion/frontier_traits.h"
#include "diffusion/ic.h"
#include "diffusion/kernel.h"
#include "util/check.h"

namespace lcrb {

struct IcTraits : LiveEdgeTraits<IcTraits> {
  static constexpr DiffusionModel kModel = DiffusionModel::kIc;
  static constexpr const char* kName = "IC";
  static constexpr bool kDeterministic = false;
  static constexpr bool kSupportsReverse = true;

  using Config = IcConfig;
  using Trace = NoTrace;

  static Config config_from(const RealizationParams& p) {
    Config c;
    c.edge_prob = p.ic_edge_prob;
    c.max_steps = p.max_hops;
    return c;
  }

  struct Coin {
    std::uint64_t seed;
    double p;
    template <class G>
    bool operator()(const G&, NodeId u, NodeId v) const {
      return ic_arc_live(seed, u, v, p);
    }
  };

  static Coin coin(std::uint64_t seed, const RealizationParams& p) {
    return {seed, p.ic_edge_prob};
  }

  template <class G>
  static std::size_t live_arc_hint(const G& g, const RealizationParams& p) {
    return static_cast<std::size_t>(static_cast<double>(g.num_edges()) *
                                    p.ic_edge_prob * 1.1);
  }

  template <class G>
  class Forward : public FrontierForward<Coin, G> {
   public:
    Forward(const G& g, std::uint64_t seed, const Config& cfg,
            Trace* /*trace*/)
        : FrontierForward<Coin, G>(g, Coin{seed, cfg.edge_prob}) {
      LCRB_REQUIRE(cfg.edge_prob >= 0.0 && cfg.edge_prob <= 1.0,
                   "edge_prob must be in [0,1]");
    }
  };
};

}  // namespace lcrb
