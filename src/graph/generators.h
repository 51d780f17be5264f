// Graph generators.
//
// Two groups:
//  * deterministic mini-graphs used by unit tests (path/cycle/star/...),
//  * random social-network generators, including the planted-partition
//    (degree-corrected SBM) generator that substitutes for the paper's Enron
//    and Hep datasets (see DESIGN.md §4).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"
#include "util/types.h"

namespace lcrb {

// ---------------------------------------------------------------------------
// Deterministic structures (tests & examples).
// ---------------------------------------------------------------------------

/// 0 -> 1 -> ... -> n-1 (plus reverse arcs when undirected).
DiGraph path_graph(NodeId n, bool undirected = false);
/// Path plus arc n-1 -> 0.
DiGraph cycle_graph(NodeId n, bool undirected = false);
/// Node 0 is the hub; arcs point 0 -> i (or both ways when undirected).
DiGraph star_graph(NodeId n, bool undirected = false);
/// All ordered pairs (u, v), u != v.
DiGraph complete_graph(NodeId n);
/// rows x cols lattice, 4-neighborhood, undirected (bidirected arcs).
DiGraph grid_graph(NodeId rows, NodeId cols);

// ---------------------------------------------------------------------------
// Classic random models.
// ---------------------------------------------------------------------------

/// G(n, p). Uses geometric edge skipping, O(E) expected time.
DiGraph erdos_renyi(NodeId n, double p, bool directed, Rng& rng);

/// G(n, m): exactly-m distinct arcs (or undirected edges) sampled uniformly.
DiGraph erdos_renyi_m(NodeId n, EdgeId m, bool directed, Rng& rng);

/// Barabási–Albert preferential attachment, `m_per_node` edges per new node;
/// undirected edges are emitted as arc pairs.
DiGraph barabasi_albert(NodeId n, NodeId m_per_node, Rng& rng);

// ---------------------------------------------------------------------------
// Community-structured social networks (the dataset substitute).
// ---------------------------------------------------------------------------

/// Configuration for the degree-corrected planted-partition generator.
struct CommunityGraphConfig {
  /// Planted community sizes; must sum to the node count.
  std::vector<NodeId> community_sizes;
  /// Expected arcs per node whose endpoints share a community.
  double avg_intra_degree = 6.0;
  /// Expected arcs per node crossing communities. Small relative to
  /// avg_intra_degree — that sparsity is the paper's core assumption.
  double avg_inter_degree = 1.5;
  /// Pareto exponent for node weights (heavier tail = hubbier graph);
  /// <= 1 disables degree correction (uniform endpoints).
  double degree_exponent = 2.5;
  /// Emit every edge as a symmetric arc pair (collaboration-network style).
  bool symmetric = false;
  std::uint64_t seed = 1;
};

/// A generated graph together with its planted ground-truth communities.
struct CommunityGraph {
  DiGraph graph;
  std::vector<CommunityId> membership;  ///< node -> planted community
  NodeId num_communities = 0;
};

CommunityGraph make_community_graph(const CommunityGraphConfig& cfg);

/// Random community sizes ~ size^-exponent in [min_size, max_size] summing to
/// exactly `total` (last block clamped).
std::vector<NodeId> power_law_sizes(NodeId total, NodeId min_size,
                                    NodeId max_size, double exponent, Rng& rng);

// ---------------------------------------------------------------------------
// Paper dataset substitutes (calibrated shapes; see DESIGN.md §4).
// ---------------------------------------------------------------------------

/// Hep collaboration-like network: ~15,233 nodes, avg degree ~7.7, symmetric
/// arcs, power-law communities including a planted one of ~308 nodes (its id
/// is returned in `planted`). `scale` in (0, 1] shrinks everything uniformly.
struct DatasetSubstitute {
  CommunityGraph net;
  CommunityId planted_small = kInvalidCommunity;  ///< ~80-node community (Enron)
  CommunityId planted_medium = kInvalidCommunity; ///< ~308 (Hep) / ~2631 (Enron)
};
DatasetSubstitute make_hep_like(std::uint64_t seed, double scale = 1.0);
DatasetSubstitute make_enron_like(std::uint64_t seed, double scale = 1.0);

}  // namespace lcrb
