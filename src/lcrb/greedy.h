// Greedy protector selection for LCRB-P (paper Algorithm 1).
//
// sigma(A) is monotone and submodular (Theorem 1), so the greedy that
// repeatedly adds argmax marginal gain achieves (1 - 1/e) of the optimum.
// Two refinements over the paper's plain loop, both ablated in bench/:
//  * CELF lazy evaluation (submodularity makes stale upper bounds sound),
//  * candidate restriction to the BBST union — the nodes that can reach a
//    bridge end no later than the rumor does; under any of our models a
//    protector outside that set can still spread, but these are the
//    high-value positions (and under DOAM the only useful ones).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph_view.h"
#include "lcrb/bridge.h"
#include "lcrb/sigma.h"
#include "util/threadpool.h"
#include "util/types.h"

namespace lcrb {

enum class CandidateStrategy : std::uint8_t {
  kBbstUnion,   ///< nodes of any bridge end's DOAM RR set (default)
  kAllNodes,    ///< every non-rumor node (the paper's literal V \ S_R)
  kBridgeEnds,  ///< only the bridge ends themselves (cheap lower bound)
};

std::string to_string(CandidateStrategy s);

struct GreedyConfig {
  double alpha = 0.8;              ///< fraction of bridge ends to protect
  std::size_t max_protectors = 0;  ///< hard cap; 0 = until alpha reached
  CandidateStrategy candidates = CandidateStrategy::kBbstUnion;
  /// Cap on the candidate pool (0 = unlimited). When capped, candidates are
  /// ranked by how many bridge ends' BBSTs contain them (kBbstUnion, the
  /// row popcounts of build_bbst_matrix) or by out-degree (other strategies)
  /// before truncation — a cheap, analytic proxy for sigma that keeps the
  /// Monte-Carlo budget on plausible seeds.
  std::size_t max_candidates = 0;
  bool use_celf = true;            ///< false = paper's plain re-evaluation
  SigmaConfig sigma;
};

struct GreedyResult {
  std::vector<NodeId> protectors;    ///< in pick order
  double achieved_fraction = 0.0;    ///< protected fraction at termination
  std::vector<double> gain_history;  ///< marginal sigma gain per pick
  /// Single-run simulations the greedy's sigma-oracle calls stand for.
  std::size_t sigma_evaluations = 0;
  std::size_t candidate_count = 0;
  /// Elementary node-touch operations spent estimating sigma; the bench's
  /// common cost currency.
  std::uint64_t nodes_visited = 0;
};

/// How multiple protector campaigns (one per rumor group) pick their seeds.
/// Both modes optimize the same role-level sigma — under the role-separable
/// collapse every protector helps against the whole rumor union — so the
/// modes differ only in coordination, which is exactly the knob Tong et
/// al. (arXiv:1711.07412) analyze: the union of uncoordinated greedy
/// solutions keeps at least 1/2 of the coordinated greedy's value.
enum class MultiCascadeMode : std::uint8_t {
  kOff,            ///< single campaign (the paper's problem)
  kCoordinated,    ///< one greedy over the summed budget, picks dealt out
  kUncoordinated,  ///< each campaign runs greedy blind to the others
};

std::string to_string(MultiCascadeMode m);

struct MultiGreedyResult {
  /// Per-campaign protector seeds, in pick order. groups[c] respects
  /// budgets[c].
  std::vector<std::vector<NodeId>> groups;
  /// Deduplicated union of the groups, ascending — what actually deploys
  /// (campaigns may collide on the same node when uncoordinated).
  std::vector<NodeId> deployed;
  /// Stats of the underlying greedy run(s); `protectors` is the deployed
  /// union and `achieved_fraction` is evaluated on it.
  GreedyResult combined;
};

/// Multi-campaign protector selection against the rumor-role union (the
/// estimator must match g/rumors/bridges and cfg.sigma). Coordinated: one
/// greedy with budget sum(budgets), picks assigned round-robin to campaigns
/// that still have budget. Uncoordinated: per-campaign greedy with its own
/// budget, blind to the other campaigns' picks; equal-budget campaigns
/// therefore pick identical sets.
template <GraphView G>
MultiGreedyResult greedy_multi_with_estimator(
    const G& g, std::span<const NodeId> rumors,
    const BridgeEndResult& bridges, const GreedyConfig& cfg,
    std::span<const std::size_t> budgets, MultiCascadeMode mode,
    const SigmaEstimator& estimator, ThreadPool* pool = nullptr);

/// Runs the LCRB-P greedy over precomputed bridge ends (find_bridge_ends)
/// against an estimator the caller owns, or one select() builds for the
/// call. The query service shares one warm SigmaEstimator — and its
/// realization cache — across every query of a session;
/// SigmaEstimator::sigma() is thread-safe, so concurrent callers are fine.
/// The estimator must have been built for the same graph/rumors/bridge ends
/// and with cfg.sigma, or results are meaningless. Because the shared
/// counters mix concurrent queries, sigma_evaluations is derived from this
/// call's own (serial) call count and nodes_visited is reported as 0. Gains
/// are scored in batches of up to kSigmaLanes sets per replay pass
/// (SigmaEstimator::sigma_batch), on the estimator's own pool; `pool` is not
/// used.
template <GraphView G>
GreedyResult greedy_lcrbp_with_estimator(const G& g,
                                         std::span<const NodeId> rumors,
                                         const BridgeEndResult& bridges,
                                         const GreedyConfig& cfg,
                                         const SigmaEstimator& estimator,
                                         ThreadPool* pool = nullptr);

}  // namespace lcrb
