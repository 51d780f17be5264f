// BFS primitives shared by bridge-end detection (RFST) and the DOAM
// protection test.
//
// All entry points are templates over the GraphView concept; definitions
// live in traversal.cpp with explicit instantiations for DiGraph and
// EfGraph (the pattern every graph consumer in this repo follows).
#pragma once

#include <span>
#include <vector>

#include "graph/graph_view.h"
#include "util/types.h"

namespace lcrb {

/// Output of a (multi-source) BFS.
struct BfsResult {
  /// Hop distance from the nearest source; kUnreached if unreachable.
  std::vector<std::uint32_t> dist;
  /// BFS-tree parent; kInvalidNode for sources and unreached nodes.
  std::vector<NodeId> parent;

  bool reached(NodeId v) const { return dist[v] != kUnreached; }
};

/// Multi-source BFS along out-edges.
template <GraphView G>
BfsResult bfs_forward(const G& g, std::span<const NodeId> sources);

/// Multi-source BFS along in-edges ("who can reach me, and how fast").
template <GraphView G>
BfsResult bfs_backward(const G& g, std::span<const NodeId> sources);

}  // namespace lcrb
