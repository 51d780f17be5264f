// The generic cascade kernel behind every diffusion model.
//
// Model semantics live in per-model traits files (opoao_traits.h,
// doam_traits.h, ic_traits.h, lt_traits.h, wc_traits.h; see model_traits.h
// for the contract). This header holds the machinery every traits file
// instantiates:
//
//  * run_cascade<Traits> — the one forward simulation loop. A traits file
//    contributes a Forward runner (seed handling + one synchronized step);
//    the kernel owns the shared K-cascade state machine: the CascadePlan
//    (cascade ids, roles, per-step priority order), step-0 seeding, the
//    per-step newly_* and per-cascade series, the `steps` watermark, the
//    max_hops cap, and the cross-model DiffusionResult invariant.
//    Everything is resolved at compile time — no virtual dispatch anywhere
//    on the hot path. simulate() (montecarlo.h) is the runtime-model entry
//    point over it.
//  * CascadePlan — the normalized view of SeedSets the Forward runners
//    iterate: K cascades with roles and seed lists, plus cascade_at(step,
//    idx), the priority policy resolved per step. With two cascades and the
//    default policy the plan is exactly [protectors, rumors] every step —
//    the paper's P-before-R rule, byte-identical to the historical kernel.
//  * RealizationParams — the model-agnostic knobs (hop cap, IC edge
//    probability) that shape one coupled realization: the only config the
//    forward runners, cache builders and reverse samplers take, so the
//    diffusion layer never depends on lcrb/ config types.
//  * EpochColorScratch / ReverseScratch — epoch-stamped working memory for
//    the realization-cache replays and the reverse-reachability samplers.
//    "Clearing" between uses is a counter bump, not an O(n) write; leasing
//    is owned by the calling layer (sigma.cpp, ris.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "diffusion/cascade.h"
#include "graph/ef_graph.h"
#include "graph/graph_view.h"
#include "util/check.h"

namespace lcrb {

/// Activation counts of one synchronized step, returned by Forward::step.
struct StepDelta {
  std::uint32_t newly_protected = 0;
  std::uint32_t newly_infected = 0;
  bool any() const { return newly_protected > 0 || newly_infected > 0; }
};

/// Trace type for models that record nothing (every model except OPOAO).
struct NoTrace {};

/// Normalized view of a SeedSets the Forward runners iterate: K cascades
/// (id = index), each with a role and a seed list, and the per-step priority
/// order. Built once per run_cascade; cheap (no copies of the seed lists).
class CascadePlan {
 public:
  explicit CascadePlan(const SeedSets& seeds) : seeds_(&seeds) {
    const std::size_t k = seeds.num_cascades();
    if (seeds.priority == CascadePriority::kFixedOrder &&
        !seeds.order.empty()) {
      base_order_.assign(seeds.order.begin(), seeds.order.end());
    } else {
      base_order_.resize(k);
      for (std::size_t i = 0; i < k; ++i) {
        base_order_[i] = static_cast<std::uint8_t>(i);
      }
    }
    round_robin_ = seeds.priority == CascadePriority::kRoundRobin;
  }

  std::size_t size() const { return base_order_.size(); }

  CascadeRole role(std::uint8_t k) const { return seeds_->role_of(k); }

  NodeState state_of(std::uint8_t k) const {
    return role(k) == CascadeRole::kProtector ? NodeState::kProtected
                                              : NodeState::kInfected;
  }

  const std::vector<NodeId>& seeds_of(std::uint8_t k) const {
    return seeds_->seeds_of(k);
  }

  /// The cascade moving at position `idx` of step `step`'s priority order.
  /// Fixed/lowest-id policies are step-independent; round-robin rotates the
  /// id order by one position per step (step 0 = seeding order).
  std::uint8_t cascade_at(std::uint32_t step, std::size_t idx) const {
    if (round_robin_) {
      return base_order_[(idx + step) % base_order_.size()];
    }
    return base_order_[idx];
  }

 private:
  const SeedSets* seeds_;
  std::vector<std::uint8_t> base_order_;
  bool round_robin_ = false;
};

/// Model-agnostic realization knobs: how deep one coupled sample runs and
/// the IC family's arc probability. Every model's forward run, cache build
/// and reverse draw takes these; the lcrb layer's MonteCarloConfig /
/// SigmaConfig / RisConfig all funnel into them when they cross into
/// diffusion code.
struct RealizationParams {
  std::uint32_t max_hops = 31;
  double ic_edge_prob = 0.1;  ///< homogeneous-IC only; WC derives its own
};

/// One forward simulation of `Traits`' model, at most `params.max_hops`
/// steps. Deterministic in (g, seeds, seed); `trace` (model-specific,
/// usually NoTrace) records the model's event log when non-null. This is
/// the single cascade loop; simulate() dispatches a runtime model onto it.
template <class Traits, GraphView G>
DiffusionResult run_cascade(const G& g, const SeedSets& seeds,
                            std::uint64_t seed,
                            const RealizationParams& params,
                            typename Traits::Trace* trace = nullptr) {
  validate_seeds(g, seeds);

  DiffusionResult r;
  r.state.assign(g.num_nodes(), NodeState::kInactive);
  r.activation_step.assign(g.num_nodes(), kUnreached);
  r.cascade.assign(g.num_nodes(), kNoCascade);

  typename Traits::template Forward<G> fwd(g, seed, params, trace);
  const CascadePlan plan(seeds);

  std::uint32_t seed_p = 0, seed_r = 0;
  for (std::size_t k = 0; k < plan.size(); ++k) {
    const auto sz = static_cast<std::uint32_t>(
        plan.seeds_of(static_cast<std::uint8_t>(k)).size());
    (plan.role(static_cast<std::uint8_t>(k)) == CascadeRole::kProtector
         ? seed_p
         : seed_r) += sz;
  }
  r.newly_protected.push_back(seed_p);
  r.newly_infected.push_back(seed_r);
  // Step 0: cascades seed in priority order — with the default two-cascade
  // plan, protector seeds before rumor seeds (the paper's P-priority rule).
  fwd.seed(plan, r);

  for (std::uint32_t step = 1; step <= params.max_hops && fwd.active();
       ++step) {
    const StepDelta d = fwd.step(plan, step, r);
    r.newly_protected.push_back(d.newly_protected);
    r.newly_infected.push_back(d.newly_infected);
    if (d.any()) r.steps = step;
  }

  // Per-cascade series, derived from the winning-cascade attribution the
  // runner recorded (one counting pass; the runners never touch these).
  r.newly_by_cascade.assign(
      plan.size(), std::vector<std::uint32_t>(r.newly_infected.size(), 0));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (r.cascade[v] != kNoCascade) {
      r.newly_by_cascade[r.cascade[v]][r.activation_step[v]] += 1;
    }
  }
  LCRB_INVARIANT(r.validate(g, seeds));
  return r;
}

/// Cascade colors inside replay scratch (distinct from NodeState so stamped
/// arrays stay byte-sized).
inline constexpr std::uint8_t kColorP = 0;
inline constexpr std::uint8_t kColorR = 1;

/// Epoch-stamped per-node color state for realization-cache replays. An
/// entry is valid only when its stamp equals the current epoch; bump()
/// invalidates everything at once. Model-specific replay scratch
/// (Traits::ReplayScratch) shares this epoch and clears its own stamped
/// arrays via on_epoch_wrap() when the counter wraps.
struct EpochColorScratch {
  std::uint32_t epoch = 0;
  std::vector<std::uint32_t> color_epoch;
  std::vector<std::uint8_t> color;

  explicit EpochColorScratch(std::size_t n) : color_epoch(n, 0), color(n, 0) {}

  bool colored(NodeId v) const { return color_epoch[v] == epoch; }
  void set(NodeId v, std::uint8_t c) {
    color_epoch[v] = epoch;
    color[v] = c;
  }

  /// Starts a fresh replay. Returns true when the epoch counter wrapped
  /// (once per ~4e9 replays) and stamped arrays were really cleared — the
  /// caller must then clear its model scratch's stamps too.
  bool bump() {
    if (++epoch == 0) {
      std::fill(color_epoch.begin(), color_epoch.end(), 0u);
      epoch = 1;
      return true;
    }
    return false;
  }
};

/// The row type backend G hands out for out_neighbors (std::span on CSR,
/// ef::Row on Elias-Fano).
template <class G>
using OutRow = decltype(std::declval<const G&>().out_neighbors(NodeId{}));

/// A node with its decoded out-row: what OPOAO keeps per active picker, so
/// a pick indexes the row without decoding the node's offsets again.
template <class Row>
struct NodeRow {
  NodeId v;
  Row row;
};

/// Per-draw working memory for the reverse-reachability samplers, reused
/// across RR sets via epoch stamping so a fresh draw costs O(touched), not
/// O(n). Leased under a mutex by RrSampler; concurrent draws each hold one.
struct ReverseScratch {
  ReverseScratch(NodeId n, std::uint32_t hops)
      : t0_epoch(n, 0),
        t0(n, 0),
        lat_epoch(n, 0),
        lat(n, 0),
        done_epoch(n, 0),
        buckets(static_cast<std::size_t>(hops) + 1) {}

  void bump_epoch() {
    if (++epoch == 0) {  // wrapped: stamps from the previous era could alias
      std::fill(t0_epoch.begin(), t0_epoch.end(), 0u);
      std::fill(lat_epoch.begin(), lat_epoch.end(), 0u);
      std::fill(done_epoch.begin(), done_epoch.end(), 0u);
      epoch = 1;
    }
  }

  std::uint32_t epoch = 0;
  /// OPOAO: rumor-only baseline activation step. Live-edge: visited stamp.
  std::vector<std::uint32_t> t0_epoch, t0;
  /// OPOAO reverse search: latest admissible claim step.
  std::vector<std::uint32_t> lat_epoch, lat;
  std::vector<std::uint32_t> done_epoch;
  std::vector<NodeId> frontier, next;
  /// OPOAO bucket queue over claim steps; always drained back to empty.
  std::vector<std::vector<NodeId>> buckets;

  /// OPOAO phase 1: the rumor-active nodes with out-edges and their rows,
  /// one list per backend (the sampler draws on either).
  template <class G>
  std::vector<NodeRow<OutRow<G>>>& active_rows() {
    return std::get<std::vector<NodeRow<OutRow<G>>>>(active_);
  }

 private:
  std::tuple<std::vector<NodeRow<std::span<const NodeId>>>,
             std::vector<NodeRow<ef::Row>>>
      active_;
};

}  // namespace lcrb
