// OPOAO model traits: the single semantic source of truth for the paper's
// Opportunistic One-Activate-One model (§III-A). Everything OPOAO-specific —
// the forward pick loop, the realization-cache pick tables + 64-lane
// replay, and the reverse temporal RR search — lives here; kernel.h,
// sigma.cpp and ris.cpp instantiate it generically. See
// model_traits.h for the traits contract.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "diffusion/kernel.h"
#include "diffusion/opoao.h"
#include "util/check.h"

namespace lcrb {

struct OpoaoTraits {
  static constexpr DiffusionModel kModel = DiffusionModel::kOpoao;
  static constexpr const char* kName = "OPOAO";
  static constexpr bool kDeterministic = false;
  static constexpr bool kSupportsReverse = true;

  // -------------------------------------------------------------------------
  // Forward runner (run_cascade<OpoaoTraits>).
  //
  // Every step, EVERY active node picks one uniformly-random out-neighbor
  // from the stateless (seed, node, step) pick stream; an inactive target
  // activates at t+1 with the picker's cascade. Cascades pick in the plan's
  // priority order (default: protectors first). The runner keeps per-node
  // counts of still-inactive out-neighbors so the simulation stops exactly
  // when nothing can ever activate again.
  //
  // Those counts also retire pickers. A step skips a pooled node whose
  // count is 0 and drops it from its pool (a stable compaction, so pool
  // order is unchanged). This is exact: the count is taken at the start of
  // the step and only falls, so such a node's pick lands on an active node
  // now and at every later step, and a pick that claims nothing changes no
  // state. tests/support/opoao_reference.h makes every pick instead and
  // pins this runner against it. Pools keep each node's decoded out-row
  // next to it, taken from the walk activate() does anyway, so a pick
  // decodes no offsets; nodes without out-edges never enter a pool.
  // -------------------------------------------------------------------------
  template <class G>
  class Forward {
   public:
    Forward(const G& g, std::uint64_t seed, const RealizationParams& /*p*/)
        : g_(g), seed_(seed), potential_(g.num_nodes(), 0) {}

    void seed(const CascadePlan& plan, DiffusionResult& r) {
      pools_.resize(plan.size());
      new_by_cascade_.resize(plan.size());
      for (std::size_t i = 0; i < plan.size(); ++i) {
        const std::uint8_t k = plan.cascade_at(0, i);
        for (NodeId v : plan.seeds_of(k)) activate(v, k, plan, 0, r);
      }
    }

    bool active() const { return active_with_potential_ > 0; }

    StepDelta step(const CascadePlan& plan, std::uint32_t step,
                   DiffusionResult& r) {
      for (auto& list : new_by_cascade_) list.clear();

      // All picks are based on the state at the *start* of the step;
      // applying picks in priority order gives the earlier cascade the node
      // on simultaneous arrival (default plan: P beats R).
      for (std::size_t i = 0; i < plan.size(); ++i) {
        const std::uint8_t k = plan.cascade_at(step, i);
        const NodeState s = plan.state_of(k);
        auto& pool = pools_[k];
        std::size_t kept = 0;
        for (std::size_t j = 0; j < pool.size(); ++j) {
          const Picker p = pool[j];
          // Saturated: no pick of p can claim again (see the class comment).
          if (potential_[p.v] == 0) continue;
          pool[kept++] = p;
          const NodeId target =
              p.row[opoao_pick_hash(seed_, p.v, step) % p.row.size()];
          if (r.state[target] == NodeState::kInactive) {
            r.state[target] = s;  // claim immediately
            new_by_cascade_[k].push_back(target);
          }
        }
        pool.resize(kept);
      }

      // Finalize activations (bookkeeping wants state transitions via
      // activate(), so temporarily reset and re-apply, in priority order).
      StepDelta d;
      for (std::size_t i = 0; i < plan.size(); ++i) {
        for (NodeId v : new_by_cascade_[plan.cascade_at(step, i)]) {
          r.state[v] = NodeState::kInactive;
        }
      }
      for (std::size_t i = 0; i < plan.size(); ++i) {
        const std::uint8_t k = plan.cascade_at(step, i);
        for (NodeId v : new_by_cascade_[k]) activate(v, k, plan, step, r);
        const auto cnt = static_cast<std::uint32_t>(new_by_cascade_[k].size());
        (plan.role(k) == CascadeRole::kProtector ? d.newly_protected
                                                 : d.newly_infected) += cnt;
      }
      return d;
    }

   private:
    using Picker = NodeRow<OutRow<G>>;

    void activate(NodeId v, std::uint8_t k, const CascadePlan& plan,
                  std::uint32_t step, DiffusionResult& r) {
      r.state[v] = plan.state_of(k);
      r.cascade[v] = k;
      r.activation_step[v] = step;
      // Tell active in-neighbors they lost an inactive target. v's own
      // count is still 0 here, so a self-loop leaves it alone (the count
      // below already skips v, which is no longer inactive).
      for (NodeId w : g_.in_neighbors(v)) {
        if (r.state[w] != NodeState::kInactive && potential_[w] > 0) {
          if (--potential_[w] == 0) --active_with_potential_;
        }
      }
      // Newly active node: count its inactive out-neighbors.
      const auto row = g_.out_neighbors(v);
      std::uint32_t cnt = 0;
      for (NodeId w : row) {
        if (r.state[w] == NodeState::kInactive) ++cnt;
      }
      potential_[v] = cnt;
      if (cnt > 0) ++active_with_potential_;
      if (!row.empty()) pools_[k].push_back({v, row});
    }

    const G& g_;
    std::uint64_t seed_;
    /// Active nodes with out-edges per cascade, in activation order, each
    /// with its out-row; saturated ones are dropped.
    std::vector<std::vector<Picker>> pools_;
    /// `potential_[v]`: number of still-inactive out-neighbors of active
    /// node v. The simulation can stop exactly when the sum over active
    /// nodes is zero.
    std::vector<std::uint32_t> potential_;
    std::size_t active_with_potential_ = 0;
    std::vector<std::vector<NodeId>> new_by_cascade_;
  };

  // -------------------------------------------------------------------------
  // Realization cache (SigmaEstimator).
  //
  // Per sample: a flat pick table (each (seed, v, step) hashed exactly once)
  // plus the rumor-only baseline activation schedule. A replay simulates
  // only the protector cascade and feeds the rumor side from the cached
  // schedule until the first protector claim that invalidates it (the
  // "divergence step"), after which the rumor side is simulated from the
  // tables too. Sound because picks are color- and state-independent.
  //
  // The same independence lets one pass over the table evaluate up to 64
  // protector sets at once (replay_lanes, what greedy gain batches run). A
  // single set keeps the scheduled replay, which skips the rumor side until
  // the divergence step and so beats a one-lane pass (about 2.5x on
  // BM_SigmaCached_Opoao).
  // -------------------------------------------------------------------------

  /// Shared across samples: the pick-table row per node (rows exist only
  /// for out-degree>0 nodes; kUnreached otherwise).
  struct CacheShared {
    std::vector<std::uint32_t> pick_row;
    std::size_t num_rows = 0;
  };

  /// One sample's materialized randomness + baseline schedule.
  struct CacheSample {
    /// Flat pick table, step-major: entry [(t-1) * num_rows + r] with
    /// r = pick_row[v] is the node v would target at step t. Step-major
    /// keeps each step's replay inside one contiguous slab of the table
    /// (node-major strides the whole table every step and thrashes cache).
    std::vector<NodeId> picks;
    /// Rumor-only activation step per node (kUnreached if never infected).
    std::vector<std::uint32_t> base_step;
    /// Baseline-infected nodes ordered by (step, id) — the replay schedule.
    std::vector<NodeId> sched;
    /// sched slice for step s is [step_off[s], step_off[s+1]).
    std::vector<std::uint32_t> step_off;
  };

  /// Replay working memory: pick-table ROW indices of colored nodes with
  /// out-edges, in activation order. Presized to num_nodes — a node enters
  /// a pool at most once, so the replay can append through raw pointers
  /// with no growth checks.
  struct ReplayScratch {
    explicit ReplayScratch(NodeId num_nodes)
        : p_pool(num_nodes), r_pool(num_nodes) {}
    void on_epoch_wrap() {}  // no stamped arrays of its own
    std::vector<std::uint32_t> p_pool, r_pool;
  };

  template <class G>
  static std::size_t estimated_cache_bytes(const G& g,
                                           std::size_t samples,
                                           std::uint32_t hops) {
    std::size_t rows = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (g.out_degree(v) > 0) ++rows;
    }
    // Upper bound by contract: the shared pick_row, then per sample the
    // pick table, base_step and sched (each at most one entry per node) and
    // step_off. Saturates rather than wraps.
    const std::size_t n = g.num_nodes();
    const std::size_t per_sample = sat_add(
        sat_mul(sat_mul(rows, hops), sizeof(NodeId)),
        n * (sizeof(std::uint32_t) + sizeof(NodeId)) +
            (static_cast<std::size_t>(hops) + 2) * sizeof(std::uint32_t));
    return sat_add(n * sizeof(std::uint32_t), sat_mul(samples, per_sample));
  }

  template <class G>
  static CacheShared build_cache_shared(const G& g) {
    CacheShared shared;
    shared.pick_row.assign(g.num_nodes(), kUnreached);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (g.out_degree(v) > 0) {
        shared.pick_row[v] = static_cast<std::uint32_t>(shared.num_rows++);
      }
    }
    return shared;
  }

  template <class G>
  static void build_cache_sample(const G& g, const CacheShared& shared,
                                 std::uint64_t seed, DiffusionResult&& base,
                                 std::span<const NodeId> /*infected_targets*/,
                                 const RealizationParams& p, CacheSample& sp) {
    const std::uint32_t hops = p.max_hops;
    // Pick tables: hash each (seed, v, step) exactly once.
    sp.picks.resize(shared.num_rows * hops);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const std::uint32_t row = shared.pick_row[v];
      if (row == kUnreached) continue;
      const auto nbrs = g.out_neighbors(v);
      for (std::uint32_t t = 1; t <= hops; ++t) {
        sp.picks[static_cast<std::size_t>(t - 1) * shared.num_rows + row] =
            nbrs[opoao_pick_hash(seed, v, t) % nbrs.size()];
      }
    }
    // Baseline schedule: infected nodes bucketed by activation step
    // (counting sort keeps it deterministic: ascending id within a step).
    sp.step_off.assign(static_cast<std::size_t>(hops) + 2, 0);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const std::uint32_t t = base.activation_step[v];
      if (t != kUnreached) ++sp.step_off[t + 1];
    }
    for (std::size_t s = 1; s < sp.step_off.size(); ++s) {
      sp.step_off[s] += sp.step_off[s - 1];
    }
    sp.sched.resize(sp.step_off.back());
    {
      std::vector<std::uint32_t> cursor(sp.step_off.begin(),
                                        sp.step_off.end() - 1);
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        const std::uint32_t t = base.activation_step[v];
        if (t != kUnreached) sp.sched[cursor[t]++] = v;
      }
    }
    sp.base_step = std::move(base.activation_step);
  }

  static std::size_t cache_shared_bytes(const CacheShared& shared) {
    return shared.pick_row.capacity() * sizeof(std::uint32_t);
  }

  static std::size_t cache_sample_bytes(const CacheSample& sp) {
    return sp.picks.capacity() * sizeof(NodeId) +
           sp.base_step.capacity() * sizeof(std::uint32_t) +
           sp.sched.capacity() * sizeof(NodeId) +
           sp.step_off.capacity() * sizeof(std::uint32_t);
  }

  /// Replays one sample with cascade P seeded at `protectors` (already
  /// stamped kColorP in `color` by the caller). Returns the elementary-op
  /// count.
  ///
  /// Phase 1: the rumor side is fed from the cached baseline schedule —
  /// exact as long as no protector claim cuts a node the baseline rumor
  /// cascade claims later. When cascade P claims node v with finite baseline
  /// rumor time T0(v), the schedule is provably valid for every step before
  /// T0(v) (picks are color-independent, so rumor picks cannot change before
  /// the first voided baseline activation); the earliest such T0 is the
  /// divergence step D. From step D on, the rumor side is simulated from the
  /// pick tables like the protector side (phase 2).
  ///
  /// The replay deliberately does NOT mirror the Forward runner's potential
  /// bookkeeping (per-node counts of uncolored out-neighbors): that
  /// machinery only drives the simulator's early exit and costs in+out
  /// neighbor scans for every activation. Claims never depend on it, so the
  /// replay tracks a single uncolored-node counter instead — reaching zero
  /// is an exact stop — and each pooled node costs one table lookup per
  /// step, touching no adjacency.
  template <class G>
  static std::uint64_t replay(const G& g, const CacheShared& shared,
                              const CacheSample& sp,
                              std::span<const NodeId> /*rumors*/,
                              std::span<const NodeId> protectors,
                              EpochColorScratch& color, ReplayScratch& rs,
                              const RealizationParams& p) {
    const std::uint32_t hops = p.max_hops;
    const std::uint32_t e = color.epoch;
    const std::size_t num_rows = shared.num_rows;
    std::uint32_t uncolored = static_cast<std::uint32_t>(g.num_nodes());

    // Hoisted raw pointers: every write below goes through color_c (a
    // uint8_t*, which the compiler must assume aliases anything) or a pool
    // append; keeping the arrays and pool lengths in locals stops those
    // writes from forcing per-iteration reloads of the vector internals —
    // worth ~20% on the sigma replay.
    std::uint32_t* const color_e = color.color_epoch.data();
    std::uint8_t* const color_c = color.color.data();
    const std::uint32_t* const pick_row = shared.pick_row.data();
    const NodeId* const sched = sp.sched.data();
    const std::uint32_t* const step_off = sp.step_off.data();
    const std::uint32_t* const base_step = sp.base_step.data();
    const NodeId* const picks = sp.picks.data();
    std::uint32_t* const p_pool = rs.p_pool.data();
    std::uint32_t* const r_pool = rs.r_pool.data();
    std::size_t p_len = 0, r_len = 0;

    auto colored = [&](NodeId v) { return color_e[v] == e; };
    // Pools hold pick-table ROW indices, not node ids: the replay loop then
    // reads only pool[], the step's pick slab, and color stamps.
    auto color_r = [&](NodeId v) {
      color_e[v] = e;
      color_c[v] = kColorR;
      --uncolored;
      if (pick_row[v] != kUnreached) {
        r_pool[r_len++] = pick_row[v];
      }
    };

    // Step 0: protector seeds (stamped by the caller), then the baseline's
    // rumor seeds.
    for (NodeId v : protectors) {
      --uncolored;
      if (pick_row[v] != kUnreached) {
        p_pool[p_len++] = pick_row[v];
      }
    }
    for (std::uint32_t k = step_off[0]; k < step_off[1]; ++k) {
      color_r(sched[k]);
    }

    std::uint32_t divergence = kUnreached;
    std::size_t sched_pos = step_off[1];
    const std::size_t sched_end = sp.sched.size();
    std::uint64_t ops = 0;

    for (std::uint32_t t = 1; t <= hops && uncolored > 0; ++t) {
      if (p_len == 0 && divergence == kUnreached) {
        // P can never claim again and never disturbed a baseline-rumor node,
        // so every baseline node still activates exactly on schedule: the
        // rest of the cascade IS the baseline. Bulk-apply and stop.
        ops += sched_end - sched_pos;
        for (std::size_t k = sched_pos; k < sched_end; ++k) {
          const NodeId v = sched[k];
          if (!colored(v)) {
            color_e[v] = e;
            color_c[v] = kColorR;
          }
        }
        break;
      }
      const NodeId* step_picks =
          picks + static_cast<std::size_t>(t - 1) * num_rows;

      // Protector picks (first within the step: P wins simultaneous
      // arrival). Snapshot the pool size — nodes claimed at step t pick from
      // t+1 on.
      const std::size_t psz = p_len;
      ops += psz;
      for (std::size_t idx = 0; idx < psz; ++idx) {
        const NodeId tgt = step_picks[p_pool[idx]];
        if (!colored(tgt)) {
          color_e[tgt] = e;
          color_c[tgt] = kColorP;  // claim immediately
          --uncolored;
          if (pick_row[tgt] != kUnreached) {
            p_pool[p_len++] = pick_row[tgt];
          }
          const std::uint32_t t0 = base_step[tgt];
          if (t0 < divergence) divergence = t0;
        }
      }

      // Rumor side: replay the baseline schedule while it is valid, simulate
      // from the pick tables once it is not.
      if (t < divergence) {
        const std::uint32_t off_end = step_off[t + 1];
        ops += off_end - sched_pos;
        for (; sched_pos < off_end; ++sched_pos) {
          const NodeId v = sched[sched_pos];
          if (!colored(v)) color_r(v);
        }
      } else {
        const std::size_t rsz = r_len;
        ops += rsz;
        for (std::size_t idx = 0; idx < rsz; ++idx) {
          const NodeId tgt = step_picks[r_pool[idx]];
          if (!colored(tgt)) color_r(tgt);
        }
      }
    }
    return ops;
  }

  static bool replay_infected(const CacheSample& /*sp*/,
                              const EpochColorScratch& color,
                              const ReplayScratch& /*rs*/, NodeId v,
                              bool /*base_infected*/) {
    return color.colored(v) && color.color[v] == kColorR;
  }

  /// Replays one sample for up to 64 protector sets at once: lane l seeds
  /// cascade P at `base` plus `extras[l]` (1 <= extras.size() <= 64). The
  /// caller has validated the seeds. Writes infected[k] = the lanes in
  /// which targets[k] ends infected (bit l = lane l) and returns the
  /// elementary-op count: one per pooled node per step, each a single pick
  /// lookup that settles every lane.
  ///
  /// Each node carries a P and an R lane word. A step runs on start-of-step
  /// state, exactly like the Forward runner: every node colored in some
  /// lane picks its step target once, and the target's free lanes (neither
  /// P nor R) are claimed by the picker's P lanes and R lanes. Claims are
  /// applied after the step, P before R, so a node both cascades reach in
  /// the same step goes to P (the paper's P-before-R rule) and a node
  /// claimed at step t picks from t+1 on. The pass stops after max_hops
  /// steps, or early once every node is colored in every lane.
  ///
  /// The lane words (16 B per node) are allocated per pass rather than kept
  /// in the engine's leased scratch: the query service keeps one estimator
  /// per draw warm, each with its own scratch pool, and per-engine lane
  /// words grew fig4_opoao_mc's peak resident set by 4.6%. Freed words are
  /// reused by the next pass on any engine, and zeroing them is cheap next
  /// to a pass.
  template <class G>
  static std::uint64_t replay_lanes(const G& g, const CacheShared& shared,
                                    const CacheSample& sp,
                                    std::span<const NodeId> rumors,
                                    std::span<const NodeId> base,
                                    std::span<const NodeId> extras,
                                    std::span<const NodeId> targets,
                                    std::span<std::uint64_t> infected,
                                    const RealizationParams& p) {
    LCRB_DCHECK(!extras.empty() && extras.size() <= 64,
                "1 to 64 lanes per replay");
    LCRB_DCHECK(infected.size() == targets.size(), "one word per target");
    struct Lanes {
      std::uint64_t p = 0;  // lanes in which cascade P holds the node
      std::uint64_t r = 0;  // lanes in which cascade R holds the node
    };
    struct Claim {  // one pick of a step: the lanes it claims v in
      NodeId v;
      std::uint64_t p, r;
    };
    struct Pooled {  // a colored node with out-edges
      std::uint32_t row;
      NodeId v;
    };
    const std::size_t lanes = extras.size();
    const std::uint64_t all =
        lanes == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << lanes) - 1;
    const std::size_t num_rows = shared.num_rows;
    const std::uint32_t* const pick_row = shared.pick_row.data();
    std::vector<Lanes> words(g.num_nodes());
    std::vector<Pooled> pool;
    std::vector<Claim> claims;
    std::uint64_t uncolored = static_cast<std::uint64_t>(g.num_nodes()) * lanes;

    // Colors v with the lanes of `pm` (P) and `rm` (R) it does not hold yet.
    auto paint = [&](NodeId v, std::uint64_t pm, std::uint64_t rm) {
      Lanes& lv = words[v];
      const std::uint64_t held = lv.p | lv.r;
      pm &= ~held;
      rm &= ~held & ~pm;
      if ((pm | rm) == 0) return;
      if (held == 0 && pick_row[v] != kUnreached) {
        pool.push_back({pick_row[v], v});
      }
      lv.p |= pm;
      lv.r |= rm;
      uncolored -= static_cast<std::uint64_t>(std::popcount(pm | rm));
    };

    // Step 0: the seeds (disjoint by the caller's validation).
    for (NodeId v : rumors) paint(v, 0, all);
    for (NodeId v : base) paint(v, all, 0);
    for (std::size_t l = 0; l < lanes; ++l) {
      paint(extras[l], std::uint64_t{1} << l, 0);
    }

    std::uint64_t ops = 0;
    for (std::uint32_t t = 1; t <= p.max_hops && uncolored > 0; ++t) {
      const NodeId* const step_picks =
          sp.picks.data() + static_cast<std::size_t>(t - 1) * num_rows;
      // Snapshot the pool: nodes claimed at step t pick from t+1 on.
      const std::size_t psz = pool.size();
      ops += psz;
      claims.clear();
      for (std::size_t i = 0; i < psz; ++i) {
        const Pooled u = pool[i];
        const NodeId tgt = step_picks[u.row];
        const std::uint64_t free = ~(words[tgt].p | words[tgt].r);
        const std::uint64_t pm = words[u.v].p & free;
        const std::uint64_t rm = words[u.v].r & free;
        if ((pm | rm) != 0) claims.push_back({tgt, pm, rm});
      }
      for (const Claim& c : claims) paint(c.v, c.p, 0);
      for (const Claim& c : claims) paint(c.v, 0, c.r);
    }
    for (std::size_t k = 0; k < targets.size(); ++k) {
      infected[k] = words[targets[k]].r;
    }
    return ops;
  }

  // -------------------------------------------------------------------------
  // Reverse reachability (RIS).
  //
  // Reverse temporal search over the pick stream: v is collected iff a pick
  // path v -> w1 -> ... -> root exists with strictly increasing steps t_i
  // where every intermediate claim lands no later than that node's
  // rumor-only baseline time (P wins the tie). Sound — every member really
  // saves the root — but a protector can also save it by starving the rumor
  // upstream without ever reaching it, so OPOAO RR coverage is a LOWER
  // bound on sigma (per-sample: covered(A) implies saved(A) by Lemma 4
  // monotonicity). docs/algorithms.md discusses the gap.
  // -------------------------------------------------------------------------

  template <class G>
  static void reverse_set(const G& g, const std::vector<bool>& is_rumor,
                          std::span<const NodeId> rumors, NodeId root,
                          std::uint64_t seed, const RealizationParams& p,
                          ReverseScratch& sc, std::vector<NodeId>& out,
                          std::uint64_t& visits) {
    const std::uint32_t hops = p.max_hops;

    // Phase 1: rumor-only forward baseline T0 under this realization,
    // straight from the stateless pick hashes (no pick tables).
    // Matches the Forward runner with empty protectors and the same
    // max_hops.
    // The replay stops at the end of the step that infects `root`: phase 2's
    // deadlines start at T0(root) and strictly decrease, so it only ever
    // consults T0(u) < T0(root) - 1 — values already final by then. Nodes the
    // full replay would infect later stay epoch-stale, which phase 2 treats
    // identically to T0(u) > deadline. Null roots still replay all `hops`
    // steps (reachability can flip at any step: picks re-draw per step).
    // The active list keeps each node's out-row, decoded once on arrival.
    auto& active = sc.active_rows<G>();
    active.clear();
    for (NodeId v : rumors) {
      sc.t0_epoch[v] = sc.epoch;
      sc.t0[v] = 0;
      const auto row = g.out_neighbors(v);
      if (!row.empty()) active.push_back({v, row});
    }
    for (std::uint32_t step = 1; step <= hops && !active.empty() &&
                                 sc.t0_epoch[root] != sc.epoch;
         ++step) {
      const std::size_t prev = active.size();
      for (std::size_t i = 0; i < prev; ++i) {
        const auto a = active[i];  // a copy: the pushes below may reallocate
        const NodeId w =
            a.row[opoao_pick_hash(seed, a.v, step) % a.row.size()];
        ++visits;
        if (sc.t0_epoch[w] != sc.epoch) {
          sc.t0_epoch[w] = sc.epoch;
          sc.t0[w] = step;
          const auto row = g.out_neighbors(w);
          if (!row.empty()) active.push_back({w, row});
        }
      }
    }
    if (sc.t0_epoch[root] != sc.epoch) return;  // null set
    const std::uint32_t t0_root = sc.t0[root];

    // Phase 2: reverse temporal search, maximizing the latest admissible
    // claim step. lat(w) = latest step at which a protector claim of w still
    // saves root through some pick path; lat(root) = T0(root) (P wins the
    // tie). Relaxing arc (u, w): the largest t <= lat(w) with pick(u, t) = w
    // lets u hand off at t, so u itself must be claimed by
    // min(t - 1, T0(u)). Deadlines strictly decrease along relaxations, so
    // one descending bucket sweep finalizes every node at its maximum
    // deadline. Rumor seeds are never claimable by P and are skipped.
    sc.lat_epoch[root] = sc.epoch;
    sc.lat[root] = t0_root;
    sc.buckets[t0_root].push_back(root);
    for (std::uint32_t b = t0_root + 1; b-- > 0;) {
      auto& bucket = sc.buckets[b];
      for (std::size_t qi = 0; qi < bucket.size(); ++qi) {
        const NodeId w = bucket[qi];
        // Stale entry: superseded by a later push or already finalized.
        if (sc.done_epoch[w] == sc.epoch || sc.lat[w] != b) continue;
        sc.done_epoch[w] = sc.epoch;
        out.push_back(w);
        if (b == 0) continue;  // nothing can be claimed before step 0
        for (NodeId u : g.in_neighbors(w)) {
          ++visits;
          if (sc.done_epoch[u] == sc.epoch || is_rumor[u]) continue;
          const auto nbrs = g.out_neighbors(u);
          std::uint32_t tstar = 0;
          for (std::uint32_t t = b; t >= 1; --t) {
            ++visits;
            if (nbrs[opoao_pick_hash(seed, u, t) % nbrs.size()] == w) {
              tstar = t;
              break;
            }
          }
          if (tstar == 0) continue;
          std::uint32_t cand = tstar - 1;
          if (sc.t0_epoch[u] == sc.epoch && sc.t0[u] < cand) cand = sc.t0[u];
          if (sc.lat_epoch[u] != sc.epoch || sc.lat[u] < cand) {
            sc.lat_epoch[u] = sc.epoch;
            sc.lat[u] = cand;
            sc.buckets[cand].push_back(u);
          }
        }
      }
      bucket.clear();
    }
  }
};

}  // namespace lcrb
