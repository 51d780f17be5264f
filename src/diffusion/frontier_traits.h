// Shared machinery of the broadcast/live-edge model family (DOAM, IC, WC).
//
// All three models are synchronized K-frontier BFS races where cascades
// expand in the plan's priority order each step (default: protectors before
// rumors) and an arc (u, v) conducts iff a per-sample coin says it is live
// (DOAM: always; IC: probability p; WC: probability 1/d_in(v)). The family
// is parameterized on that coin:
//
//  * FrontierForward<Traits> — the Forward runner run_cascade instantiates:
//    the frontier race over the arcs Traits::coin(seed, params) declares
//    live.
//  * LiveEdgeTraits<Traits> — the forward, cache and reverse members of the
//    traits contract, parameterized on the traits' coin:
//    - the realization cache: the live subgraph in CSR form plus baseline
//      rumor BFS distances d_R. With arc liveness independent of the
//      cascades, the winner at any node is argmin(d_R, d_P) with P on ties
//      (docs/algorithms.md gives the induction), so an evaluation is one
//      protector-side BFS over cached live arcs. For DOAM every arc is live
//      and this is the dist(S_P, v) <= dist(S_R, v) rule of paper §III-B.
//    - the RIS reverse sampler: reverse BFS over the transposed live
//      subgraph, truncated at the rumor arrival level.
//
// doam_traits.h, ic_traits.h and wc_traits.h are each their identity flags
// plus a coin.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "diffusion/kernel.h"

namespace lcrb {

/// Forward runner for the frontier family. The sample's coin,
/// `Traits::coin(seed, params)`, decides arc liveness as `coin(g, u, v)`; it
/// must be a pure function of the sample seed and the arc so that forward
/// runs, cache builds and reverse draws all realize the same subgraph.
template <class Traits, class G>
class FrontierForward {
 public:
  FrontierForward(const G& g, std::uint64_t seed, const RealizationParams& p)
      : g_(g), coin_(Traits::coin(seed, p)) {}

  void seed(const CascadePlan& plan, DiffusionResult& r) {
    frontier_.resize(plan.size());
    next_.resize(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const std::uint8_t k = plan.cascade_at(0, i);
      const NodeState s = plan.state_of(k);
      for (NodeId v : plan.seeds_of(k)) {
        r.state[v] = s;
        r.cascade[v] = k;
        r.activation_step[v] = 0;
        frontier_[k].push_back(v);
      }
    }
  }

  bool active() const {
    for (const auto& f : frontier_) {
      if (!f.empty()) return true;
    }
    return false;
  }

  StepDelta step(const CascadePlan& plan, std::uint32_t step,
                 DiffusionResult& r) {
    StepDelta d;
    // Earlier cascades in the priority order claim nodes first (default
    // plan: P wins simultaneous arrival).
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const std::uint8_t k = plan.cascade_at(step, i);
      const NodeState s = plan.state_of(k);
      next_[k].clear();
      for (NodeId u : frontier_[k]) {
        for (NodeId v : g_.out_neighbors(u)) {
          if (r.state[v] == NodeState::kInactive && coin_(g_, u, v)) {
            r.state[v] = s;
            r.cascade[v] = k;
            r.activation_step[v] = step;
            next_[k].push_back(v);
          }
        }
      }
      frontier_[k].swap(next_[k]);
      const auto cnt = static_cast<std::uint32_t>(frontier_[k].size());
      (plan.role(k) == CascadeRole::kProtector ? d.newly_protected
                                               : d.newly_infected) += cnt;
    }
    return d;
  }

 private:
  const G& g_;
  decltype(Traits::coin(0, RealizationParams{})) coin_;
  /// Per-cascade frontiers (indexed by cascade id).
  std::vector<std::vector<NodeId>> frontier_, next_;
};

/// One sample's realization for a live-edge model: live subgraph + baseline
/// rumor distances.
struct LiveEdgeSample {
  std::vector<std::uint32_t> live_off;  ///< n+1 CSR offsets
  std::vector<NodeId> live_tgt;         ///< live arc targets
  std::vector<std::uint32_t> dist_r;    ///< baseline rumor BFS distance
  std::uint32_t max_needed = 0;  ///< max d_R over baseline-infected ends
};

/// Replay working memory for live-edge models: the protector-side BFS state.
struct LiveEdgeReplayScratch {
  explicit LiveEdgeReplayScratch(NodeId n) : dist(n, 0) {}
  void on_epoch_wrap() {}  // dist is guarded by the shared color stamps
  std::vector<std::uint32_t> dist;  ///< BFS arrival (touched nodes only)
  std::vector<NodeId> queue;
};

/// The forward, realization-cache and reverse members of the traits
/// contract, written once for the whole family. A traits struct derives from
/// LiveEdgeTraits<itself>, declares its identity flags and supplies
///
///   static Coin coin(std::uint64_t seed, const RealizationParams& p);
///   static std::size_t live_arc_hint(const G& g, const RealizationParams& p);
///
/// — the sample's arc coin and the expected live-arc count (a reserve hint
/// for the cached CSR; purely a perf knob).
template <class Traits>
struct LiveEdgeTraits {
  template <class G>
  using Forward = FrontierForward<Traits, G>;

  struct CacheShared {};
  using CacheSample = LiveEdgeSample;
  using ReplayScratch = LiveEdgeReplayScratch;

  /// Upper bound by contract: every arc live. Saturates rather than wraps.
  template <class G>
  static std::size_t estimated_cache_bytes(const G& g, std::size_t samples,
                                           std::uint32_t /*hops*/) {
    const std::size_t n = g.num_nodes();
    return sat_mul(samples,
                   static_cast<std::size_t>(g.num_edges()) * sizeof(NodeId) +
                       (n + 1) * sizeof(std::uint32_t) +
                       n * sizeof(std::uint32_t));
  }

  template <class G>
  static CacheShared build_cache_shared(const G&) { return {}; }

  /// Materializes one sample: the coin is flipped once per arc, and the
  /// baseline activation steps ARE the live-subgraph BFS distances from the
  /// rumor seeds (no competition in the baseline run). `infected_targets`
  /// are the baseline-infected bridge ends — arrivals deeper than the
  /// deepest of them can never save anything, which caps every replay's BFS.
  template <class G>
  static void build_cache_sample(const G& g, const CacheShared&,
                                 std::uint64_t seed, DiffusionResult&& base,
                                 std::span<const NodeId> infected_targets,
                                 const RealizationParams& p, CacheSample& sp) {
    const auto coin = Traits::coin(seed, p);
    sp.live_off.assign(g.num_nodes() + 1, 0);
    sp.live_tgt.reserve(Traits::live_arc_hint(g, p));
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      for (NodeId v : g.out_neighbors(u)) {
        if (coin(g, u, v)) sp.live_tgt.push_back(v);
      }
      sp.live_off[u + 1] = static_cast<std::uint32_t>(sp.live_tgt.size());
    }
    sp.live_tgt.shrink_to_fit();
    sp.dist_r = std::move(base.activation_step);
    sp.max_needed = 0;
    for (NodeId v : infected_targets) {
      sp.max_needed = std::max(sp.max_needed, sp.dist_r[v]);
    }
  }

  static std::size_t cache_shared_bytes(const CacheShared&) { return 0; }

  static std::size_t cache_sample_bytes(const CacheSample& sp) {
    return sp.live_off.capacity() * sizeof(std::uint32_t) +
           sp.live_tgt.capacity() * sizeof(NodeId) +
           sp.dist_r.capacity() * sizeof(std::uint32_t);
  }

  /// Replays one sample: a single protector-side BFS over the cached live
  /// arcs (protectors are already stamped kColorP by the caller), truncated
  /// at min(hops, max_needed). Returns the elementary-op count.
  template <class G>
  static std::uint64_t replay(const G&, const CacheShared&,
                              const CacheSample& sp,
                              std::span<const NodeId> /*rumors*/,
                              std::span<const NodeId> protectors,
                              EpochColorScratch& color, ReplayScratch& rs,
                              const RealizationParams& p) {
    const std::uint32_t e = color.epoch;
    rs.queue.clear();
    for (NodeId v : protectors) {
      rs.dist[v] = 0;
      rs.queue.push_back(v);
    }
    const std::uint32_t depth_cap = std::min(p.max_hops, sp.max_needed);
    std::uint64_t ops = 0;
    for (std::size_t head = 0; head < rs.queue.size(); ++head) {
      const NodeId u = rs.queue[head];
      const std::uint32_t du = rs.dist[u];
      ++ops;
      if (du >= depth_cap) continue;
      const std::uint32_t begin = sp.live_off[u], end = sp.live_off[u + 1];
      ops += end - begin;
      for (std::uint32_t k = begin; k < end; ++k) {
        const NodeId v = sp.live_tgt[k];
        if (color.color_epoch[v] != e) {
          color.color_epoch[v] = e;
          color.color[v] = kColorP;
          rs.dist[v] = du + 1;
          rs.queue.push_back(v);
        }
      }
    }
    return ops;
  }

  /// Bridge-end verdict after replay: a baseline-uninfected end cannot be
  /// hurt by protectors; a baseline-infected end is saved iff the protector
  /// BFS reached it no later than the rumor (P wins ties).
  static bool replay_infected(const CacheSample& sp,
                              const EpochColorScratch& color,
                              const ReplayScratch& rs, NodeId v,
                              bool base_infected) {
    if (!base_infected) return false;
    return !(color.colored(v) && rs.dist[v] <= sp.dist_r[v]);
  }

  /// Reverse BFS over the TRANSPOSED live arcs. The first level that
  /// contains a rumor seed is the realized rumor arrival d_R(root); it
  /// truncates the search, and by the live-subgraph distance rule every
  /// non-rumor node within that depth saves root. Null (nothing appended to
  /// out) when the rumor never reaches root within max_hops. `root` is never
  /// a rumor seed (RrSampler rejects such bridge ends).
  template <class G>
  static void reverse_set(const G& g, const std::vector<bool>& is_rumor,
                          std::span<const NodeId> /*rumors*/, NodeId root,
                          std::uint64_t seed, const RealizationParams& p,
                          ReverseScratch& sc, std::vector<NodeId>& out,
                          std::uint64_t& visits) {
    const auto coin = Traits::coin(seed, p);
    const std::size_t start = out.size();
    sc.frontier.clear();
    sc.t0_epoch[root] = sc.epoch;
    sc.frontier.push_back(root);
    out.push_back(root);
    ++visits;
    std::uint32_t limit = p.max_hops;
    bool reached = false;
    for (std::uint32_t d = 0; d < limit && !sc.frontier.empty(); ++d) {
      sc.next.clear();
      for (NodeId w : sc.frontier) {
        for (NodeId u : g.in_neighbors(w)) {
          ++visits;
          if (sc.t0_epoch[u] == sc.epoch) continue;
          if (!coin(g, u, w)) continue;
          sc.t0_epoch[u] = sc.epoch;
          sc.next.push_back(u);
          if (!is_rumor[u]) {
            out.push_back(u);
          } else if (!reached) {
            reached = true;
            limit = d + 1;
          }
        }
      }
      sc.frontier.swap(sc.next);
    }
    if (!reached) out.resize(start);  // null set
  }
};

}  // namespace lcrb
