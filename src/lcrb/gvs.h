// Greedy Viral Stopper (GVS) — related-work baseline after Nguyen et al.
// [26] (paper §II): greedily seed protectors to minimize the TOTAL expected
// number of infected nodes, irrespective of community structure or bridge
// ends. Contrasting it with the LCRB algorithms shows what the bridge-end
// objective buys: GVS spends budget inside the rumor community where
// infections are doomed anyway, while LCRB guards the boundary.
//
// Candidates are scored by a SigmaEstimator whose targets are every
// non-rumor node: infected(A) = n - uninfected(A) per sample, replayed from
// the realization cache, so a GVS query is bounded by kMaxSigmaCacheBytes
// exactly as the greedy is.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph_view.h"
#include "lcrb/sigma.h"
#include "util/threadpool.h"
#include "util/types.h"

namespace lcrb {

struct GvsConfig {
  std::size_t budget = 10;  ///< protectors to select
  /// Samples, seed, hop cap, model and IC edge probability of the
  /// infection estimate.
  SigmaConfig sigma{.samples = 20, .seed = 23};
  /// Candidate pool cap (ranked by out-degree); 0 = all non-rumor nodes.
  std::size_t max_candidates = 300;
};

struct GvsResult {
  std::vector<NodeId> protectors;       ///< pick order
  double baseline_infected = 0.0;       ///< E[#infected] with no protectors
  double final_infected = 0.0;          ///< E[#infected] with the full set
  std::vector<double> infected_history; ///< E[#infected] after each pick
};

/// Runs GVS with CELF-style lazy evaluation (the infection-reduction
/// objective is monotone and empirically submodular under the live-pick
/// coupling; lazy bounds are refreshed before acceptance either way).
/// Throws lcrb::Error when the estimator would exceed kMaxSigmaCacheBytes;
/// the message names gvs_samples, the option that sets cfg.sigma.samples.
template <GraphView G>
GvsResult gvs_protectors(const G& g, std::span<const NodeId> rumors,
                         const GvsConfig& cfg, ThreadPool* pool = nullptr);

}  // namespace lcrb
