#include "graph/traversal.h"

#include <deque>

#include "graph/ef_graph.h"
#include "graph/graph.h"

namespace lcrb {

namespace {

template <class G, typename NeighborFn>
BfsResult bfs_impl(const G& g, std::span<const NodeId> sources,
                   NeighborFn neighbors) {
  BfsResult r;
  r.dist.assign(g.num_nodes(), kUnreached);
  r.parent.assign(g.num_nodes(), kInvalidNode);
  std::deque<NodeId> queue;
  for (NodeId s : sources) {
    LCRB_REQUIRE(s < g.num_nodes(), "BFS source out of range");
    if (r.dist[s] == kUnreached) {
      r.dist[s] = 0;
      queue.push_back(s);
    }
  }
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (NodeId v : neighbors(u)) {
      if (r.dist[v] == kUnreached) {
        r.dist[v] = r.dist[u] + 1;
        r.parent[v] = u;
        queue.push_back(v);
      }
    }
  }
  return r;
}

}  // namespace

template <GraphView G>
BfsResult bfs_forward(const G& g, std::span<const NodeId> sources) {
  return bfs_impl(g, sources, [&g](NodeId u) { return g.out_neighbors(u); });
}

template <GraphView G>
BfsResult bfs_backward(const G& g, std::span<const NodeId> sources) {
  return bfs_impl(g, sources, [&g](NodeId u) { return g.in_neighbors(u); });
}

#define LCRB_INSTANTIATE_TRAVERSAL(G)                                         \
  template BfsResult bfs_forward<G>(const G&, std::span<const NodeId>);       \
  template BfsResult bfs_backward<G>(const G&, std::span<const NodeId>);

LCRB_INSTANTIATE_TRAVERSAL(DiGraph)
LCRB_INSTANTIATE_TRAVERSAL(EfGraph)

#undef LCRB_INSTANTIATE_TRAVERSAL

}  // namespace lcrb
