// Competitive-LT model traits (extension model, after He et al.'s CLT [16]):
// threshold theta_v ~ U(0,1) hashed from (seed, v), in-arc weight 1/d_in(v).
// At each step an inactive node whose active in-neighbor weight reaches
// theta_v activates and adopts the color with the larger contributing
// weight (ties -> P, matching the paper's priority rule). The realization
// cache serves the threshold draw and the arc weights; the replay mirrors
// the Forward runner's iteration order exactly so every floating-point
// weight sum is bit-identical.
//
// No reverse sampler: competitive LT is not per-sample monotone (adding a
// protector can flip a tie-break chain and infect a previously-saved node),
// so RR-set coverage has no save semantics — kSupportsReverse is false and
// RIS rejects the model at construction.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "diffusion/kernel.h"

namespace lcrb {

/// The stateless threshold draw theta_v ~ U(0,1) for (sample seed, node),
/// shared by the forward runner and the realization cache. Defined inline:
/// it sits on their innermost loops.
inline double lt_node_threshold(std::uint64_t seed, NodeId v) {
  std::uint64_t x = seed ^ (0x9e3779b97f4a7c15ULL * (v + 0x1234567));
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

struct LtTraits {
  static constexpr DiffusionModel kModel = DiffusionModel::kLt;
  static constexpr const char* kName = "LT";
  static constexpr bool kDeterministic = false;
  static constexpr bool kSupportsReverse = false;

  template <class G>
  class Forward {
   public:
    Forward(const G& g, std::uint64_t seed, const RealizationParams& /*p*/)
        : g_(g), seed_(seed) {}

    void seed(const CascadePlan& plan, DiffusionResult& r) {
      w_.assign(plan.size(),
                std::vector<double>(g_.num_nodes(), 0.0));
      wp_.assign(g_.num_nodes(), 0.0);
      wi_.assign(g_.num_nodes(), 0.0);
      for (std::size_t i = 0; i < plan.size(); ++i) {
        const std::uint8_t k = plan.cascade_at(0, i);
        const NodeState s = plan.state_of(k);
        for (NodeId v : plan.seeds_of(k)) {
          r.state[v] = s;
          r.cascade[v] = k;
          r.activation_step[v] = 0;
          frontier_.push_back(v);
        }
      }
    }

    bool active() const { return !frontier_.empty(); }

    StepDelta step(const CascadePlan& plan, std::uint32_t step,
                   DiffusionResult& r) {
      // Push the new activations' weight to their out-neighbors, credited
      // to the pushing node's cascade. LT has no claim race — all weight
      // lands before any threshold check — so CascadePriority never changes
      // an LT outcome; the tie rules below are fixed (P beats R on equal
      // role sums, lowest id on equal weight within the winning role).
      candidates_.clear();
      for (NodeId u : frontier_) {
        const std::uint8_t ku = r.cascade[u];
        const bool prot = plan.role(ku) == CascadeRole::kProtector;
        for (NodeId v : g_.out_neighbors(u)) {
          if (r.state[v] != NodeState::kInactive) continue;
          const double w = 1.0 / static_cast<double>(g_.in_degree(v));
          w_[ku][v] += w;
          // Dedicated per-role accumulators drive the threshold and the
          // winner decision. Every increment to node v is the same constant
          // 1/d_in(v), so these sums depend only on the per-role contributor
          // COUNT, never on how the role is split into cascades — the
          // bit-exact role-separable collapse the cache/RIS engines and the
          // replay below rely on. (Summing the per-cascade partials instead
          // would round differently for K > 2.)
          (prot ? wp_ : wi_)[v] += w;
          candidates_.push_back(v);
        }
      }

      next_frontier_.clear();
      StepDelta d;
      const std::size_t kk = plan.size();
      for (NodeId v : candidates_) {
        if (r.state[v] != NodeState::kInactive) continue;  // dedup within step
        if (wp_[v] + wi_[v] >= lt_node_threshold(seed_, v)) {
          // Role winner by the aggregated role sums (P wins ties); the
          // heaviest cascade of the winning role takes the node.
          const CascadeRole win = (wp_[v] >= wi_[v]) ? CascadeRole::kProtector
                                                     : CascadeRole::kRumor;
          std::uint8_t best = kNoCascade;
          double best_w = -1.0;
          for (std::size_t k = 0; k < kk; ++k) {
            const auto kb = static_cast<std::uint8_t>(k);
            if (plan.role(kb) != win) continue;
            if (w_[k][v] > best_w) {
              best_w = w_[k][v];
              best = kb;
            }
          }
          r.state[v] = win == CascadeRole::kProtector ? NodeState::kProtected
                                                      : NodeState::kInfected;
          r.cascade[v] = best;
          r.activation_step[v] = step;
          next_frontier_.push_back(v);
          (win == CascadeRole::kProtector ? d.newly_protected
                                          : d.newly_infected)++;
        }
      }
      frontier_.swap(next_frontier_);
      return d;
    }

   private:
    const G& g_;
    std::uint64_t seed_;
    /// Accumulated in-neighbor weight per cascade (id-indexed) — attribution
    /// only; the threshold/winner decisions read the role accumulators.
    std::vector<std::vector<double>> w_;
    /// Per-role weight accumulators (protector / rumor), bit-identical to
    /// the two-cascade run on the role unions.
    std::vector<double> wp_, wi_;
    std::vector<NodeId> frontier_;  ///< newly activated nodes (all cascades)
    std::vector<NodeId> candidates_, next_frontier_;
  };

  // --- realization cache (threshold draw + shared arc weights) -------------

  /// Shared across samples: the arc weight 1/d_in(v) per node.
  struct CacheShared {
    std::vector<double> inv_in_deg;
  };

  /// One sample's threshold draw.
  struct CacheSample {
    std::vector<double> thr;
  };

  /// Replay working memory: epoch-stamped per-color weight accumulators
  /// (lazily zeroed on first touch per replay) plus the frontier buffers.
  struct ReplayScratch {
    explicit ReplayScratch(NodeId n) : w_epoch(n, 0), wp(n, 0.0), wi(n, 0.0) {}
    void on_epoch_wrap() {
      std::fill(w_epoch.begin(), w_epoch.end(), 0u);
    }
    std::vector<std::uint32_t> w_epoch;
    std::vector<double> wp, wi;
    std::vector<NodeId> frontier, next_frontier, candidates;
  };

  template <class G>
  static std::size_t estimated_cache_bytes(const G& g,
                                           std::size_t samples,
                                           std::uint32_t /*hops*/) {
    const std::size_t n = g.num_nodes();
    return sat_add(sat_mul(samples, n * sizeof(double)), n * sizeof(double));
  }

  template <class G>
  static CacheShared build_cache_shared(const G& g) {
    CacheShared shared;
    shared.inv_in_deg.assign(g.num_nodes(), 0.0);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (g.in_degree(v) > 0) {
        shared.inv_in_deg[v] = 1.0 / static_cast<double>(g.in_degree(v));
      }
    }
    return shared;
  }

  template <class G>
  static void build_cache_sample(const G& g, const CacheShared&,
                                 std::uint64_t seed, DiffusionResult&& /*base*/,
                                 std::span<const NodeId> /*infected_targets*/,
                                 const RealizationParams& /*p*/,
                                 CacheSample& sp) {
    sp.thr.resize(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      sp.thr[v] = lt_node_threshold(seed, v);
    }
  }

  static std::size_t cache_shared_bytes(const CacheShared& shared) {
    return shared.inv_in_deg.capacity() * sizeof(double);
  }

  static std::size_t cache_sample_bytes(const CacheSample& sp) {
    return sp.thr.capacity() * sizeof(double);
  }

  /// Identical control flow to the Forward runner, with the threshold draw
  /// and the arc weights served from the cache; protectors are already
  /// stamped kColorP by the caller. Returns the elementary-op count.
  template <class G>
  static std::uint64_t replay(const G& g, const CacheShared& shared,
                              const CacheSample& sp,
                              std::span<const NodeId> rumors,
                              std::span<const NodeId> protectors,
                              EpochColorScratch& color, ReplayScratch& rs,
                              const RealizationParams& p) {
    const std::uint32_t e = color.epoch;
    rs.frontier.clear();
    for (NodeId v : protectors) rs.frontier.push_back(v);
    for (NodeId v : rumors) {
      color.color_epoch[v] = e;
      color.color[v] = kColorR;
      rs.frontier.push_back(v);
    }

    auto colored = [&](NodeId v) { return color.color_epoch[v] == e; };

    std::uint64_t ops = 0;
    for (std::uint32_t t = 1; t <= p.max_hops && !rs.frontier.empty(); ++t) {
      rs.candidates.clear();
      for (NodeId u : rs.frontier) {
        const bool prot = color.color[u] == kColorP;
        ops += g.out_degree(u);
        for (NodeId v : g.out_neighbors(u)) {
          if (colored(v)) continue;
          if (rs.w_epoch[v] != e) {
            rs.w_epoch[v] = e;
            rs.wp[v] = 0.0;
            rs.wi[v] = 0.0;
          }
          (prot ? rs.wp[v] : rs.wi[v]) += shared.inv_in_deg[v];
          rs.candidates.push_back(v);
        }
      }
      rs.next_frontier.clear();
      for (NodeId v : rs.candidates) {
        if (colored(v)) continue;  // dedup within step
        if (rs.wp[v] + rs.wi[v] >= sp.thr[v]) {
          color.color_epoch[v] = e;
          color.color[v] = (rs.wp[v] >= rs.wi[v]) ? kColorP : kColorR;
          rs.next_frontier.push_back(v);
        }
      }
      rs.frontier.swap(rs.next_frontier);
    }
    return ops;
  }

  static bool replay_infected(const CacheSample& /*sp*/,
                              const EpochColorScratch& color,
                              const ReplayScratch& /*rs*/, NodeId v,
                              bool /*base_infected*/) {
    return color.colored(v) && color.color[v] == kColorR;
  }
};

}  // namespace lcrb
