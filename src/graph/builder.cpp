#include "graph/builder.h"

#include <algorithm>

#include "util/check.h"

namespace lcrb {

void GraphBuilder::add_edge(NodeId u, NodeId v) {
  LCRB_REQUIRE(u != kInvalidNode && v != kInvalidNode, "invalid node id");
  // A dropped self-loop still names the node, so grow the node count first.
  num_nodes_ = std::max({num_nodes_, u + 1, v + 1});
  if (u == v && !opts_.keep_self_loops) return;
  edges_.emplace_back(u, v);
}

void GraphBuilder::add_undirected_edge(NodeId u, NodeId v) {
  add_edge(u, v);
  add_edge(v, u);
}

void GraphBuilder::reserve_nodes(NodeId n) {
  num_nodes_ = std::max(num_nodes_, n);
}

void GraphBuilder::reserve_edges(std::size_t m) { edges_.reserve(m); }

DiGraph GraphBuilder::finalize() {
  DiGraph g;
  g.num_nodes_ = num_nodes_;

  // Forward CSR: counting sort on source, then sort each (short) row and,
  // under dedup, drop its repeated targets. Rows end up exactly as sorting
  // the whole (source, target) list would leave them.
  g.out_offsets_.assign(num_nodes_ + 1, 0);
  g.out_targets_.resize(edges_.size());
  for (const auto& [u, v] : edges_) ++g.out_offsets_[u + 1];
  for (NodeId i = 0; i < num_nodes_; ++i)
    g.out_offsets_[i + 1] += g.out_offsets_[i];
  {
    std::vector<EdgeId> cursor(g.out_offsets_.begin(),
                               g.out_offsets_.end() - 1);
    for (const auto& [u, v] : edges_) g.out_targets_[cursor[u]++] = v;
  }
  edges_.clear();
  edges_.shrink_to_fit();

  const auto targets = g.out_targets_.begin();
  EdgeId kept = 0;
  for (NodeId u = 0; u < num_nodes_; ++u) {
    const auto first = targets + static_cast<std::ptrdiff_t>(g.out_offsets_[u]);
    const auto last =
        targets + static_cast<std::ptrdiff_t>(g.out_offsets_[u + 1]);
    std::sort(first, last);
    const auto end = opts_.dedup ? std::unique(first, last) : last;
    const auto out = targets + static_cast<std::ptrdiff_t>(kept);
    if (out != first) std::copy(first, end, out);
    g.out_offsets_[u] = kept;
    kept += static_cast<EdgeId>(end - first);
  }
  g.out_offsets_[num_nodes_] = kept;
  const std::size_t m = kept;
  if (m != g.out_targets_.size()) {
    g.out_targets_.resize(m);
    g.out_targets_.shrink_to_fit();
  }

  // Backward CSR via counting sort on target. Sources arrive in ascending
  // order because the out-rows are walked by source, so each in-neighbor
  // list is already sorted.
  g.in_offsets_.assign(num_nodes_ + 1, 0);
  g.in_sources_.resize(m);
  for (const NodeId v : g.out_targets_) ++g.in_offsets_[v + 1];
  for (NodeId i = 0; i < num_nodes_; ++i)
    g.in_offsets_[i + 1] += g.in_offsets_[i];
  std::vector<EdgeId> cursor(g.in_offsets_.begin(), g.in_offsets_.end() - 1);
  for (NodeId u = 0; u < num_nodes_; ++u) {
    for (EdgeId e = g.out_offsets_[u]; e < g.out_offsets_[u + 1]; ++e)
      g.in_sources_[cursor[g.out_targets_[e]]++] = u;
  }

  num_nodes_ = 0;
  LCRB_INVARIANT(g.validate());
  return g;
}

DiGraph make_graph(NodeId n, const std::vector<std::pair<NodeId, NodeId>>& arcs,
                   bool undirected) {
  GraphBuilder b;
  b.reserve_nodes(n);
  b.reserve_edges(undirected ? arcs.size() * 2 : arcs.size());
  for (const auto& [u, v] : arcs) {
    if (undirected) {
      b.add_undirected_edge(u, v);
    } else {
      b.add_edge(u, v);
    }
  }
  return b.finalize();
}

}  // namespace lcrb
