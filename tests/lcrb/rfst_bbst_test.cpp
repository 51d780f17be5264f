#include <gtest/gtest.h>

#include <algorithm>
#include <ranges>

#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/traversal.h"
#include "community/partition.h"
#include "lcrb/bbst_matrix.h"
#include "lcrb/bridge.h"
#include "support/bbst_sets.h"
#include "util/rng.h"

namespace lcrb {
namespace {

// ------------------------------ RFST ------------------------------
//
// The rumor forward search trees (paper Algorithm 1/3 step 3, Fig. 3a) are
// the BFS forest of a multi-source bfs_forward from the rumor originators:
// `dist` is the hop count from the nearest root, `parent` the tree arc.

// Test-local path walk: v up to its root (inclusive), v first; empty when
// the forest does not reach v.
std::vector<NodeId> path_to_root(const BfsResult& f, NodeId v) {
  std::vector<NodeId> path;
  if (!f.reached(v)) return path;
  for (NodeId cur = v; cur != kInvalidNode; cur = f.parent[cur]) {
    path.push_back(cur);
    if (path.size() > f.dist.size()) {
      ADD_FAILURE() << "cycle in BFS forest";
      break;
    }
  }
  return path;
}

std::size_t forest_size(const BfsResult& f) {
  return static_cast<std::size_t>(
      std::count_if(f.dist.begin(), f.dist.end(),
                    [](std::uint32_t d) { return d != kUnreached; }));
}

TEST(Rfst, PathForest) {
  const DiGraph g = path_graph(5);
  const BfsResult f = bfs_forward(g, std::vector<NodeId>{0});
  EXPECT_EQ(forest_size(f), 5u);
  EXPECT_EQ(f.dist[4], 4u);
  EXPECT_EQ(path_to_root(f, 4), (std::vector<NodeId>{4, 3, 2, 1, 0}));
  EXPECT_EQ(path_to_root(f, 0), (std::vector<NodeId>{0}));
}

TEST(Rfst, MultiRootForest) {
  const DiGraph g = make_graph(6, {{0, 2}, {1, 3}, {2, 4}, {3, 5}});
  const BfsResult f = bfs_forward(g, std::vector<NodeId>{0, 1});
  EXPECT_EQ(f.dist[0], 0u);
  EXPECT_EQ(f.dist[1], 0u);
  EXPECT_EQ(path_to_root(f, 4).back(), 0u);
  EXPECT_EQ(path_to_root(f, 5).back(), 1u);
}

TEST(Rfst, UnreachedNodesHaveEmptyPath) {
  const DiGraph g = make_graph(4, {{0, 1}, {2, 3}});
  const BfsResult f = bfs_forward(g, std::vector<NodeId>{0});
  EXPECT_FALSE(f.reached(3));
  EXPECT_TRUE(path_to_root(f, 3).empty());
  EXPECT_EQ(forest_size(f), 2u);
}

TEST(Rfst, EmptyRumorsThrow) {
  // The forest's library consumer, the bridge-end search, refuses an empty
  // originator set.
  const DiGraph g = path_graph(3);
  const Partition p({0, 0, 1});
  EXPECT_THROW(find_bridge_ends(g, p, 0, std::vector<NodeId>{}), Error);
}

// ------------------------------ BBST ------------------------------
//
// Under DOAM the BBST of bridge end b is every node that saves b; SCBG
// sweeps them into build_bbst_matrix, one lane per bridge end. Decoded in
// bridge-end order, set i must be exactly
// {w not a rumor : dist(w, b_i) <= d_R(b_i)}.

BridgeEndResult ends_with_rumor_dist(const DiGraph& g,
                                     std::vector<NodeId> ends,
                                     const std::vector<NodeId>& rumors) {
  BridgeEndResult b;
  b.bridge_ends = std::move(ends);
  b.rumor_dist = bfs_forward(g, rumors).dist;
  return b;
}

reference::BbstSets bbsts_of(const DiGraph& g,
                             const std::vector<NodeId>& rumors,
                             const BridgeEndResult& b) {
  const BbstMatrix m = build_bbst_matrix(g, rumors, b);
  m.validate(g.num_nodes());
  return reference::decode_bbsts(m, g.num_nodes());
}

TEST(Bbst, DepthLimitIsRumorDistance) {
  // 0 -> 1 -> 2 -> v(3); side protector chain 5 -> 4 -> 3.
  const DiGraph g = make_graph(6, {{0, 1}, {1, 2}, {2, 3}, {4, 3}, {5, 4}});
  const std::vector<NodeId> rumors{0};
  const BridgeEndResult b = ends_with_rumor_dist(g, {3}, rumors);
  ASSERT_EQ(b.rumor_dist[3], 3u);
  const reference::BbstSets sets = bbsts_of(g, rumors, b);
  ASSERT_EQ(sets.sets.size(), 1u);
  // Backward BFS from 3 within 3 hops: {3, 2, 4, 1, 5} minus rumor {0}.
  EXPECT_EQ(sets.sets[0], (std::vector<NodeId>{1, 2, 3, 4, 5}));
}

TEST(Bbst, RumorsExcluded) {
  // Rumors never join a set; the root itself is always present
  // (N^0(v) = v).
  const DiGraph g = make_graph(5, {{0, 1}, {1, 2}, {2, 3}, {4, 3}});
  const std::vector<NodeId> one{0};
  EXPECT_EQ(bbsts_of(g, one, ends_with_rumor_dist(g, {3}, one)).sets[0],
            (std::vector<NodeId>{1, 2, 3, 4}));
  // A second rumor next to the root cuts the depth limit to one hop.
  const std::vector<NodeId> two{0, 4};
  EXPECT_EQ(bbsts_of(g, two, ends_with_rumor_dist(g, {3}, two)).sets[0],
            (std::vector<NodeId>{2, 3}));
}

TEST(Bbst, EveryMemberCanReachRootInTime) {
  Rng rng(5);
  const DiGraph g = erdos_renyi(100, 0.05, true, rng);
  const std::vector<NodeId> rumors{0, 1};
  const BfsResult rd = bfs_forward(g, rumors);
  // Pick reachable nodes as pseudo bridge ends.
  std::vector<NodeId> ends;
  for (NodeId v = 10; v < g.num_nodes() && ends.size() < 5; ++v) {
    if (rd.dist[v] != kUnreached && rd.dist[v] >= 2) ends.push_back(v);
  }
  ASSERT_FALSE(ends.empty());

  const BridgeEndResult b = ends_with_rumor_dist(g, ends, rumors);
  const reference::BbstSets sets = bbsts_of(g, rumors, b);
  ASSERT_EQ(sets.sets.size(), ends.size());
  for (std::size_t i = 0; i < ends.size(); ++i) {
    const BfsResult to_root = bfs_backward(g, std::vector<NodeId>{ends[i]});
    for (NodeId w : sets.sets[i]) {
      EXPECT_LE(to_root.dist[w], rd.dist[ends[i]]) << "node " << w;
    }
  }
}

TEST(Bbst, UnreachableRootRejected) {
  const DiGraph g = path_graph(3);
  BridgeEndResult b;
  b.bridge_ends = {2};
  b.rumor_dist = {0, 1, kUnreached};
  EXPECT_THROW(build_bbst_matrix(g, std::vector<NodeId>{0}, b), Error);
}

TEST(BuildAllBbsts, OnePerBridgeEnd) {
  const DiGraph g = make_graph(6, {{0, 1}, {1, 2}, {0, 3}, {3, 4}, {4, 5}});
  const std::vector<NodeId> rumors{0};
  const BridgeEndResult b = ends_with_rumor_dist(g, {5, 2}, rumors);
  const BbstMatrix m = build_bbst_matrix(g, rumors, b);
  EXPECT_NO_THROW(m.validate(g.num_nodes()));
  // Deepest lane first: 5 (d_R 3) before 2 (d_R 2).
  EXPECT_TRUE(std::ranges::equal(m.lane_ends(),
                                 std::vector<std::uint32_t>{0, 1}));
  // Bridge-end order, not node order: set 0 is rooted at 5, set 1 at 2.
  const reference::BbstSets sets = reference::decode_bbsts(m, g.num_nodes());
  ASSERT_EQ(sets.sets.size(), 2u);
  EXPECT_EQ(sets.sets[0], (std::vector<NodeId>{3, 4, 5}));
  EXPECT_EQ(sets.sets[1], (std::vector<NodeId>{1, 2}));
}

TEST(InvertBbsts, SwSetsAreExactMembership) {
  // Candidate u protects exactly the bridge ends whose BBST contains it:
  // a matrix row is the SW map of Algorithm 3 step 5.
  const DiGraph g = make_graph(7, {{0, 1}, {1, 2}, {1, 3}, {4, 2}, {4, 3},
                                   {5, 4}, {6, 5}});
  const std::vector<NodeId> rumors{0};
  const BridgeEndResult b = ends_with_rumor_dist(g, {2, 3}, rumors);
  const BbstMatrix m = build_bbst_matrix(g, rumors, b);
  const reference::BbstSets sets = reference::decode_bbsts(m, g.num_nodes());

  // Node 4 reaches both 2 and 3 in one hop (rumor distance 2): in both sets.
  EXPECT_EQ(sets.sw[4], (std::vector<std::uint32_t>{0, 1}));
  // Node 6 is 3 hops away from both: in neither.
  EXPECT_TRUE(sets.sw[6].empty());

  // Cross-check every (candidate, set) pair both ways, and the row counts.
  const std::vector<std::uint32_t> rows = m.row_counts(g.num_nodes());
  std::size_t total_sw = 0;
  std::size_t candidates = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(rows[u], sets.sw[u].size());
    candidates += rows[u] > 0;
    for (std::uint32_t s : sets.sw[u]) {
      const auto& nodes = sets.sets[s];
      EXPECT_NE(std::find(nodes.begin(), nodes.end(), u), nodes.end());
      ++total_sw;
    }
  }
  EXPECT_EQ(total_sw, sets.total);
  EXPECT_EQ(candidates, 5u);  // {1, 2, 3, 4, 5}
}

}  // namespace
}  // namespace lcrb
