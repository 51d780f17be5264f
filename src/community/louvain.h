// Louvain community detection (Blondel et al. 2008) — the method the paper
// uses to obtain the community structure before rumor blocking.
#pragma once

#include <cstdint>

#include "community/partition.h"
#include "graph/graph_view.h"

namespace lcrb {

struct LouvainConfig {
  std::uint64_t seed = 1;     ///< node-visit shuffling
  int max_levels = 20;        ///< aggregation rounds
  int max_sweeps = 50;        ///< local-move sweeps per level
  double min_gain = 1e-9;     ///< minimum modularity gain to accept a move
};

/// Runs multi-level Louvain on the undirected weighted view of `g`
/// (arc (u,v) and (v,u) each contribute weight 1 to the undirected edge;
/// self-loops are ignored). Each level is a flat CSR with integer weights
/// and degrees computed once, so every modularity gain is an exact
/// function of integer totals. Deterministic in (graph, cfg.seed). Throws
/// lcrb::Error on a graph of 2^32 arcs or more.
template <GraphView G>
Partition louvain(const G& g, const LouvainConfig& cfg = {});

}  // namespace lcrb
