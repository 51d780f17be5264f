// Reverse-reachable (RR) set sampling for sigma — the RIS alternative to
// the forward Monte-Carlo SigmaEstimator (after Tong et al.'s randomized
// rumor blocking and the Borgs et al. / OPIM line of IM samplers).
//
// One RR draw picks a uniformly-random bridge end b and one coupled
// realization (the same stateless randomness simulate() uses: OPOAO pick
// stream, IC/WC live-edge coins; DOAM is deterministic), then collects the
// set of nodes that, seeded alone as a protector at step 0, save b in that
// realization. The per-model reverse searches live in the model traits
// (src/diffusion/model_traits.h, capability kSupportsReverse with
// reverse_set); the sampler here owns the generic machinery —
// root/realization draws, scratch leasing, pool growth. A bridge end that
// is a rumor seed is rejected at construction (it can never be saved):
//
//  * DOAM/IC/WC — reverse BFS over the TRANSPOSED live-edge subgraph (DOAM:
//             every arc live); the rumor arrival d_R(b) is discovered by
//             the same search (first level containing a rumor seed) and
//             truncates it. Exact by the live-subgraph distance rule: v
//             saves b iff dist(v, b) <= d_R(b) (DESIGN §6.4).
//  * OPOAO  — reverse temporal search over the pick stream: v is collected
//             iff a pick path v -> w1 -> ... -> b exists with strictly
//             increasing steps t_i where every intermediate claim lands no
//             later than that node's rumor-only baseline time (P wins the
//             tie). Sound — every member really saves b — but a protector
//             can also save b by starving the rumor upstream without ever
//             reaching b, so OPOAO RR coverage is a LOWER bound on sigma
//             (per-sample: covered(A) implies saved(A) by Lemma 4
//             monotonicity). docs/algorithms.md discusses the gap.
//  * LT     — rejected at construction (kSupportsReverse = false): not
//             per-sample monotone, so coverage has no save semantics.
//
// sigma(A) ~= |B| * (covered RR sets / total RR sets): exact in expectation
// for DOAM/IC/WC, conservative for OPOAO. Coverage of a fixed pool is
// monotone and submodular, so a CELF-style lazy-heap max-coverage greedy
// over the pool keeps the paper's (1 - 1/e) machinery, and an OPIM-style
// two-pool stopping rule — Hoeffding and martingale concentration bounds
// (arXiv:1701.02368) evaluated at every checkpoint of a sub-doubling
// schedule, whichever is tighter — makes the accuracy knobs (epsilon,
// delta) explicit instead of a fixed sample count (see ris_schedule.h).
//
// Generation is deterministic in (config seed, stream, index): every RR set
// lands in a preassigned slot and shards are merged in index order, so
// results are bit-identical across thread counts (the fixed-order reduction
// convention of util/reduce.h).
//
// SCBG does not sample: its DOAM set of every bridge end (the BBST, which
// is also that root's RR set) is one lane of the bit matrix in
// lcrb/bbst_matrix.h, and only the lazy greedy core (lcrb/lazy_cover.h) is
// shared with coverage_greedy below.
#pragma once

#include <cstdint>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "diffusion/kernel.h"
#include "diffusion/montecarlo.h"
#include "graph/backend.h"
#include "lcrb/bridge.h"
#include "util/scratch_pool.h"
#include "util/threadpool.h"
#include "util/types.h"

namespace lcrb {

/// Which sigma machinery drives the LCRB-P greedy.
enum class SigmaMode : std::uint8_t {
  kMonteCarlo,  ///< forward coupled simulation (SigmaEstimator)
  kRis,         ///< RR-set max coverage (this header)
};

std::string to_string(SigmaMode m);

struct RisConfig {
  /// Relative accuracy target of the stopping rule: sampling stops once the
  /// selected set's certified coverage ratio reaches (1 - 1/e - epsilon), or
  /// both pool estimates are within epsilon/4 of their certified bounds.
  double epsilon = 0.1;
  /// Total failure probability budget of all concentration bounds.
  double delta = 0.01;
  /// RR sets per pool at the first stopping checkpoint; later checkpoints
  /// follow ris_stopping_schedule (doublings plus x1.5 midpoints).
  std::size_t initial_sets = 512;
  /// Hard cap per pool; sampling stops here even if the rule has not fired.
  std::size_t max_sets = std::size_t{1} << 18;
  std::uint64_t seed = 7;
  std::uint32_t max_hops = 31;
  DiffusionModel model = DiffusionModel::kOpoao;
  double ic_edge_prob = 0.1;
};

/// One worker's batch of freshly drawn RR sets in CSR-lite form (per-set
/// sizes + concatenated nodes in search order) — the unit RrSampler fills
/// in parallel and RrPool merges in fixed shard order, so pool contents are
/// a pure function of draw indices whatever the thread count.
struct RrShard {
  std::vector<std::uint32_t> sizes;  ///< nodes per set, in draw-index order
  std::vector<NodeId> nodes;         ///< concatenated sets, unsorted
  std::uint64_t visits = 0;          ///< node-touch ops spent on this shard
};

/// A batch of RR sets in CSR form with a node -> RR-set inverted index.
/// Grows in rounds via RrSampler::extend; set i keeps its identity forever.
class RrPool {
 public:
  /// Number of RR sets, including null sets (root not rumor-reached in its
  /// realization — nothing to save, but it still counts in the denominator).
  std::size_t num_sets() const { return set_off_.size() - 1; }
  std::size_t num_null() const { return num_null_; }

  /// Nodes of RR set i, ascending. Empty span = null set.
  std::span<const NodeId> set_nodes(std::size_t i) const {
    return {nodes_.data() + set_off_[i], nodes_.data() + set_off_[i + 1]};
  }
  /// RR-set ids containing node v, ascending (the inverted index).
  std::span<const std::uint32_t> sets_containing(NodeId v) const {
    if (inv_off_.empty()) return {};
    return {inv_sets_.data() + inv_off_[v], inv_sets_.data() + inv_off_[v + 1]};
  }

  std::size_t total_entries() const { return nodes_.size(); }
  /// Elementary node-touch operations spent generating the pool (forward
  /// baseline steps + reverse-search relaxations); the bench's cost metric.
  std::uint64_t nodes_visited() const { return nodes_visited_; }

  /// Fraction of RR sets hit by seed set `a` (coverage objective), plus the
  /// null sets folded in when `count_null` (the protected-fraction reading).
  /// `limit` restricts the evaluation to the first `limit` sets (0 = all):
  /// because set i keeps its identity forever, the first-theta prefix of a
  /// warm pool is bit-identical to a cold pool of theta sets, which is what
  /// lets the query service reuse one grown pool across queries.
  double coverage_fraction(std::span<const NodeId> a, bool count_null,
                           std::size_t limit = 0) const;

  /// Null sets among the first `limit` sets (limit <= num_sets()).
  std::size_t num_null_prefix(std::size_t limit) const;

  /// Heap footprint of the pool's arrays (capacity-based), for the session
  /// registry's byte accounting.
  std::size_t memory_bytes() const;

  /// Throws lcrb::Error unless the pool is internally consistent: CSR
  /// offsets monotone, sets strictly ascending with in-range nodes, null and
  /// covered-node counters exact, and the inverted index in exact two-way
  /// agreement with the sets. O(total entries). Called automatically after
  /// every append under LCRB_ENABLE_INVARIANTS.
  void validate() const;

 private:
  friend class RrSampler;
  /// Merges freshly drawn shards, in shard order, onto the end of the pool.
  void append_shards(std::vector<RrShard>&& shards, NodeId num_graph_nodes);
  /// Rebuilds the node -> set index by counting, then transposes it back
  /// into the sets, which leaves every set ascending whatever order its
  /// nodes were appended in.
  void rebuild_inverted_index(NodeId num_graph_nodes);

  std::vector<std::uint32_t> set_off_ = {0};
  std::vector<NodeId> nodes_;
  std::vector<std::uint32_t> inv_off_;  ///< per node, rebuilt on append
  std::vector<std::uint32_t> inv_sets_;
  std::size_t num_null_ = 0;
  std::uint64_t nodes_visited_ = 0;
};

/// Draws RR sets under the coupled competitive models. Thread-safe: parallel
/// draws lease independent scratch buffers, and every draw is a pure
/// function of (config seed, stream, index).
class RrSampler {
 public:
  /// `g` may reference either backend; it must outlive the sampler.
  RrSampler(GraphRef g, std::vector<NodeId> rumors,
            std::vector<NodeId> bridge_ends, const RisConfig& cfg);
  ~RrSampler();

  RrSampler(const RrSampler&) = delete;
  RrSampler& operator=(const RrSampler&) = delete;

  /// Root index (into bridge_ends) and realization seed of draw `index` on
  /// `stream` (0 = selection pool, 1 = validation pool; every other stream
  /// is a further independent draw sequence).
  struct Draw {
    std::size_t root_idx;
    std::uint64_t realization_seed;
  };
  Draw draw(std::uint64_t stream, std::size_t index) const;

  /// The RR set of one (root, realization) pair, ascending node ids; empty
  /// when the rumor never reaches the root in this realization. `visits`
  /// (optional) accumulates elementary node-touch operations.
  std::vector<NodeId> rr_set(std::size_t root_idx,
                             std::uint64_t realization_seed,
                             std::uint64_t* visits = nullptr) const;

  /// Grows `pool` toward `target_sets` RR sets using draws
  /// [pool.num_sets(), target_sets) of `stream`. The draw range is split
  /// into contiguous index shards, each filled into its own CSR shard buffer
  /// (one scratch lease per shard, no per-set heap allocation) — in parallel
  /// when `tp` is given — then merged in fixed shard order, so the pool is
  /// bit-identical at 0/1/N threads.
  void extend(RrPool& pool, std::uint64_t stream, std::size_t target_sets,
              ThreadPool* tp = nullptr) const;

  const std::vector<NodeId>& bridge_ends() const { return bridge_ends_; }
  GraphRef graph() const { return g_; }
  const RisConfig& config() const { return cfg_; }

 private:
  /// Appends the RR set of one (root, realization) pair to `nodes`, in
  /// search order, and returns its size; the shard fill loop shares one
  /// scratch across all its draws.
  std::uint32_t rr_set_into(std::size_t root_idx,
                            std::uint64_t realization_seed, ReverseScratch& sc,
                            std::vector<NodeId>& nodes,
                            std::uint64_t& visits) const;

  GraphRef g_;
  RisConfig cfg_;
  std::vector<NodeId> rumors_;
  std::vector<NodeId> bridge_ends_;
  std::vector<bool> is_rumor_;

  /// One ReverseScratch (diffusion/kernel.h) per concurrent draw loop.
  mutable ScratchPool<ReverseScratch> scratch_;
};

/// Outcome of coverage_greedy.
struct CoverageGreedyOutcome {
  std::vector<NodeId> picks;
  std::vector<std::size_t> gains;  ///< newly covered sets per pick
  std::size_t covered = 0;
  std::size_t candidates = 0;  ///< nodes in at least one set
  std::uint64_t ops = 0;
};

/// Max-coverage greedy over the first `theta` sets of `pool` (its
/// identity-keeping prefix): picks the node covering the most uncovered
/// sets, lowest node id on ties, until (covered + null) / theta reaches
/// `alpha`, `max_protectors` (0 = unlimited) is hit, or no node covers an
/// uncovered set. SCBG runs the same greedy over its bridge-end matrix
/// (cover_bbst_matrix, lcrb/bbst_matrix.h). `ops` counts residual-count
/// decrements.
CoverageGreedyOutcome coverage_greedy(const RrPool& pool, NodeId num_nodes,
                                      double alpha, std::size_t max_protectors,
                                      std::size_t theta);

/// Why the adaptive sampling loop stopped.
enum class RisStopReason : std::uint8_t {
  kNone,        ///< no sampling ran (e.g. no bridge ends)
  kCertified,   ///< the (1 - 1/e - epsilon) ratio was certified
  kNegligible,  ///< both pool estimates within epsilon/4 of their bounds
  kMaxSets,     ///< RisConfig::max_sets exhausted before the rule fired
};

std::string to_string(RisStopReason r);

/// Result of the RIS max-coverage greedy: the engine select() (lcrb/
/// pipeline.h) runs for SigmaMode::kRis.
struct RisGreedyResult {
  std::vector<NodeId> protectors;  ///< in pick order
  /// Estimated protected fraction on the validation pool at termination.
  double achieved_fraction = 0.0;
  /// Marginal sigma gain per pick, in bridge-end units (|B| * d_coverage).
  std::vector<double> gain_history;
  std::size_t rr_sets = 0;  ///< per pool at termination
  std::size_t rounds = 0;   ///< stopping checkpoints evaluated
  /// Certified bounds on sigma(protectors) under the coverage objective:
  /// lower from the validation pool, upper from the selection pool's greedy
  /// guarantee, each holding with probability >= 1 - delta overall.
  double sigma_lower = 0.0;
  double sigma_upper = 0.0;
  std::size_t distinct_candidates = 0;  ///< nodes seen in any RR set
  /// Greedy node ops; select() adds the pools' generation work when it
  /// built the context itself.
  std::uint64_t nodes_visited = 0;
  /// Why sampling stopped, and whether the (epsilon, delta) guarantee was
  /// met (false when the max_sets cap ended sampling first — also surfaced
  /// as a one-time process warning).
  RisStopReason stop_reason = RisStopReason::kNone;
  bool guarantee_met = false;
};

/// Warm RIS state a GraphSession keeps between queries: the sampler plus the
/// selection/validation pools it has grown so far. Queries that need theta
/// sets extend the pools (unique_lock) if short, then evaluate over the
/// first-theta prefix (shared_lock) — bit-identical to a cold run because
/// every RR set lands in a preassigned slot.
struct RisContext {
  RisContext(GraphRef g, std::vector<NodeId> rumors,
             std::vector<NodeId> bridge_ends, const RisConfig& cfg)
      : sampler(g, std::move(rumors), std::move(bridge_ends), cfg) {}

  RrSampler sampler;
  RrPool selection;   ///< stream 0
  RrPool validation;  ///< stream 1
  mutable std::shared_mutex mu;  ///< extend: unique; evaluate: shared

  /// Pool heap footprint (the sampler's scratch is transient and excluded).
  std::size_t memory_bytes() const {
    return selection.memory_bytes() + validation.memory_bytes();
  }
};

/// RIS protector selection: adaptive sample doubling (OPIM-style two-pool
/// rule) + max-coverage greedy until the estimated protected fraction
/// reaches `alpha` or `max_protectors` (0 = unlimited) is hit. Runs against
/// a warm context, caller-owned or one select() builds for the call. The
/// context must have been built for the same graph/rumors/bridge ends, and
/// the knobs that shape RR draws (seed, max_hops, model, ic_edge_prob) must
/// match ctx.sampler.config() — enforced with lcrb::Error. The accuracy
/// knobs (epsilon/delta/initial_sets/max_sets) may differ per query.
/// RisGreedyResult::nodes_visited reports only this call's greedy ops: the
/// shared pools' generation counters mix queries.
RisGreedyResult ris_greedy_with_context(double alpha,
                                        std::size_t max_protectors,
                                        const RisConfig& cfg, RisContext& ctx,
                                        ThreadPool* pool = nullptr);

}  // namespace lcrb
