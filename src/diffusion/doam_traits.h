// DOAM model traits (paper §III-B): the frontier family with every arc
// live — a deterministic synchronized two-source BFS. No realization cache
// (the model has no randomness to materialize; SigmaEngine re-runs the
// forward kernel per sample) but a reverse sampler: v saves root iff
// dist(v, root) <= dist_R(root), the §6.4 distance rule.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "diffusion/doam.h"
#include "diffusion/frontier_traits.h"
#include "diffusion/kernel.h"

namespace lcrb {

struct DoamTraits {
  static constexpr DiffusionModel kModel = DiffusionModel::kDoam;
  static constexpr const char* kName = "DOAM";
  static constexpr bool kDeterministic = true;
  static constexpr bool kSupportsCache = false;
  static constexpr bool kSupportsReverse = true;

  using Config = DoamConfig;
  using Trace = NoTrace;

  static Config config_from(const RealizationParams& p) {
    Config c;
    c.max_steps = p.max_hops;
    return c;
  }

  struct AlwaysLive {
    template <class G>
    bool operator()(const G&, NodeId, NodeId) const { return true; }
  };

  template <class G>
  class Forward : public FrontierForward<AlwaysLive, G> {
   public:
    Forward(const G& g, std::uint64_t /*seed*/, const Config& /*cfg*/,
            Trace* /*trace*/)
        : FrontierForward<AlwaysLive, G>(g, AlwaysLive{}) {}
  };

  /// Multi-source rumor BFS, capped at max_hops — the DOAM arrival times.
  /// Deterministic, so it is shared across every reverse draw.
  template <class G>
  static ReverseShared build_reverse_shared(const G& g,
                                            std::span<const NodeId> rumors,
                                            const RealizationParams& p) {
    ReverseShared shared;
    shared.rumor_dist.assign(g.num_nodes(), kUnreached);
    std::vector<NodeId> frontier, next;
    for (NodeId v : rumors) {
      shared.rumor_dist[v] = 0;
      frontier.push_back(v);
    }
    for (std::uint32_t d = 1; d <= p.max_hops && !frontier.empty(); ++d) {
      next.clear();
      for (NodeId u : frontier) {
        for (NodeId w : g.out_neighbors(u)) {
          if (shared.rumor_dist[w] == kUnreached) {
            shared.rumor_dist[w] = d;
            next.push_back(w);
          }
        }
      }
      frontier.swap(next);
    }
    return shared;
  }

  template <class G>
  static void reverse_set(const G& g, const std::vector<bool>& is_rumor,
                          std::span<const NodeId> /*rumors*/,
                          const ReverseShared& shared, NodeId root,
                          std::uint64_t /*seed*/,
                          const RealizationParams& /*p*/, ReverseScratch& sc,
                          std::vector<NodeId>& out, std::uint64_t& visits) {
    const std::uint32_t limit = shared.rumor_dist[root];
    if (limit == kUnreached) return;  // rumor never arrives: null set

    // Plain reverse BFS capped at dist_R(root). Any path through a rumor
    // seed r has length >= 1 + dist_R(root) (dist(r, root) >= dist_R(root)),
    // so the cap already keeps rumor seeds off every counted path; they are
    // only excluded from the output.
    sc.frontier.clear();
    sc.t0_epoch[root] = sc.epoch;
    sc.frontier.push_back(root);
    if (!is_rumor[root]) out.push_back(root);
    ++visits;
    for (std::uint32_t d = 1; d <= limit && !sc.frontier.empty(); ++d) {
      sc.next.clear();
      for (NodeId w : sc.frontier) {
        for (NodeId u : g.in_neighbors(w)) {
          ++visits;
          if (sc.t0_epoch[u] == sc.epoch) continue;
          sc.t0_epoch[u] = sc.epoch;
          sc.next.push_back(u);
          if (!is_rumor[u]) out.push_back(u);
        }
      }
      sc.frontier.swap(sc.next);
    }
  }
};

}  // namespace lcrb
