// Deterministic One-Activate-Many (DOAM) model (paper §III-B).
//
// A node activated at step t activates ALL of its currently-inactive
// out-neighbors at step t+1, exactly once (broadcast). With the P-priority
// tie rule this is a synchronized two-source BFS and is fully deterministic.
#pragma once

#include <cstdint>

#include "diffusion/cascade.h"

namespace lcrb {

/// Analytic protection test (DESIGN.md §6.4): under DOAM, node v ends
/// protected or untouched iff dist(S_P, v) <= dist(S_R, v) (plain multi-
/// source BFS distances, unreachable = infinity). Returns, for each node of
/// `targets`, whether it ends uninfected. Used by SCBG coverage checks —
/// O(V+E) instead of a simulation per query.
template <GraphView G>
std::vector<bool> doam_saved(const G& g, const SeedSets& seeds,
                             std::span<const NodeId> targets);

}  // namespace lcrb
