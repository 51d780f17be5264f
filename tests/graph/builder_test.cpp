#include "graph/builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "util/rng.h"

namespace lcrb {
namespace {

TEST(GraphBuilder, DedupsParallelEdgesByDefault) {
  GraphBuilder b;
  b.add_edge(0, 1);
  b.add_edge(0, 1);
  b.add_edge(0, 1);
  const DiGraph g = b.finalize();
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphBuilder, KeepsParallelEdgesWhenAsked) {
  GraphBuilder b({.dedup = false, .keep_self_loops = false});
  b.add_edge(0, 1);
  b.add_edge(0, 1);
  const DiGraph g = b.finalize();
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(GraphBuilder, DropsSelfLoopsByDefault) {
  GraphBuilder b;
  b.add_edge(2, 2);
  b.add_edge(0, 1);
  const DiGraph g = b.finalize();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_FALSE(g.has_edge(2, 2));
}

TEST(GraphBuilder, KeepsSelfLoopsWhenAsked) {
  GraphBuilder b({.dedup = true, .keep_self_loops = true});
  b.add_edge(2, 2);
  const DiGraph g = b.finalize();
  EXPECT_TRUE(g.has_edge(2, 2));
}

TEST(GraphBuilder, UndirectedAddsBothArcs) {
  GraphBuilder b;
  b.add_undirected_edge(0, 1);
  const DiGraph g = b.finalize();
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
}

TEST(GraphBuilder, NodeCountGrowsWithIds) {
  GraphBuilder b;
  b.add_edge(0, 42);
  const DiGraph g = b.finalize();
  EXPECT_EQ(g.num_nodes(), 43u);
}

TEST(GraphBuilder, ReserveNodesCreatesIsolated) {
  GraphBuilder b;
  b.reserve_nodes(5);
  const DiGraph g = b.finalize();
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(GraphBuilder, ReusableAfterFinalize) {
  GraphBuilder b;
  b.add_edge(0, 1);
  const DiGraph g1 = b.finalize();
  EXPECT_EQ(g1.num_edges(), 1u);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  const DiGraph g2 = b.finalize();
  EXPECT_EQ(g2.num_edges(), 2u);
  EXPECT_EQ(g2.num_nodes(), 3u);
}

TEST(GraphBuilder, InvalidNodeIdThrows) {
  GraphBuilder b;
  EXPECT_THROW(b.add_edge(kInvalidNode, 0), Error);
  EXPECT_THROW(b.add_edge(0, kInvalidNode), Error);
}

// Property: for random graphs, the in-adjacency is exactly the transpose of
// the out-adjacency.
class BuilderPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BuilderPropertyTest, InAdjacencyIsTransposeOfOut) {
  Rng rng(GetParam());
  GraphBuilder b;
  const NodeId n = 50;
  b.reserve_nodes(n);
  std::map<std::pair<NodeId, NodeId>, bool> truth;
  for (int e = 0; e < 400; ++e) {
    const auto u = static_cast<NodeId>(rng.next_below(n));
    const auto v = static_cast<NodeId>(rng.next_below(n));
    if (u == v) continue;
    b.add_edge(u, v);
    truth[{u, v}] = true;
  }
  const DiGraph g = b.finalize();

  EXPECT_EQ(g.num_edges(), truth.size());
  // Every stored out-arc appears in truth and as an in-arc.
  EdgeId out_arcs = 0, in_arcs = 0;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : g.out_neighbors(u)) {
      EXPECT_TRUE(truth.count({u, v})) << u << "->" << v;
      const auto in = g.in_neighbors(v);
      EXPECT_TRUE(std::binary_search(in.begin(), in.end(), u));
      ++out_arcs;
    }
    in_arcs += g.in_degree(u);
  }
  EXPECT_EQ(out_arcs, g.num_edges());
  EXPECT_EQ(in_arcs, g.num_edges());
}

// Property: under every option pair, each row is what sorting (and, under
// dedup, uniquing) the whole arc list gives, and the arrays hold no slack.
TEST_P(BuilderPropertyTest, RowsMatchSortedArcList) {
  for (const bool dedup : {true, false}) {
    for (const bool loops : {true, false}) {
      Rng rng(GetParam());
      GraphBuilder b({.dedup = dedup, .keep_self_loops = loops});
      const NodeId n = 40;
      b.reserve_nodes(n + 3);  // three isolated nodes at the end
      std::vector<std::pair<NodeId, NodeId>> arcs;
      for (int e = 0; e < 300; ++e) {
        const auto u = static_cast<NodeId>(rng.next_below(n));
        const auto v = static_cast<NodeId>(rng.next_below(n / 4));
        b.add_edge(u, v);
        if (u != v || loops) arcs.emplace_back(u, v);
      }
      std::sort(arcs.begin(), arcs.end());
      if (dedup) arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());
      const DiGraph g = b.finalize();

      ASSERT_EQ(g.num_nodes(), n + 3);
      ASSERT_EQ(g.num_edges(), arcs.size());
      std::vector<std::vector<NodeId>> outs(n + 3), ins(n + 3);
      for (const auto& [u, v] : arcs) {
        outs[u].push_back(v);
        ins[v].push_back(u);
      }
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        const auto out = g.out_neighbors(u);
        const auto in = g.in_neighbors(u);
        EXPECT_EQ(std::vector<NodeId>(out.begin(), out.end()), outs[u]) << u;
        EXPECT_EQ(std::vector<NodeId>(in.begin(), in.end()), ins[u]) << u;
      }
      EXPECT_EQ(g.memory_bytes(), 2 * (n + 4) * sizeof(EdgeId) +
                                      2 * arcs.size() * sizeof(NodeId));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuilderPropertyTest,
                         ::testing::Values(1, 2, 3, 17, 99, 12345));

}  // namespace
}  // namespace lcrb
