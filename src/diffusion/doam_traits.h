// DOAM model traits (paper §III-B): the frontier family with every arc
// live — a deterministic synchronized two-source BFS. Forward, cache and
// reverse all come from frontier_traits.h; this file only binds the
// AlwaysLive coin. With every arc live the cache's distance rule is the
// paper's: v ends protected iff dist(S_P, v) <= dist(S_R, v). The model is
// deterministic, so SigmaEstimator materializes one realization and replays
// it once for all samples.
#pragma once

#include <cstdint>

#include "diffusion/doam.h"
#include "diffusion/frontier_traits.h"
#include "diffusion/kernel.h"

namespace lcrb {

struct DoamTraits : LiveEdgeTraits<DoamTraits> {
  static constexpr DiffusionModel kModel = DiffusionModel::kDoam;
  static constexpr const char* kName = "DOAM";
  static constexpr bool kDeterministic = true;
  static constexpr bool kSupportsReverse = true;

  struct AlwaysLive {
    template <class G>
    bool operator()(const G&, NodeId, NodeId) const { return true; }
  };

  static AlwaysLive coin(std::uint64_t /*seed*/, const RealizationParams&) {
    return {};
  }

  template <class G>
  static std::size_t live_arc_hint(const G& g, const RealizationParams&) {
    return g.num_edges();
  }
};

}  // namespace lcrb
