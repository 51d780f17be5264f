// Randomized invariant tests across the core algorithms.
#include <gtest/gtest.h>

#include <set>

#include "graph/ef_graph.h"
#include "graph/generators.h"
#include "graph/traversal.h"
#include "lcrb/bridge.h"
#include "lcrb/ris.h"
#include "lcrb/scbg.h"
#include "util/rng.h"

namespace lcrb {
namespace {

class CoreInvariantTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    CommunityGraphConfig cfg;
    cfg.community_sizes = {70, 70, 70};
    cfg.avg_intra_degree = 5.0;
    cfg.avg_inter_degree = 1.0;
    cfg.seed = GetParam();
    cg = make_community_graph(cfg);
    p = Partition(cg.membership);
    Rng rng(GetParam() * 17 + 5);
    const auto& members = p.members(0);
    std::set<NodeId> picks;
    while (picks.size() < 3) {
      picks.insert(members[rng.next_below(members.size())]);
    }
    rumors.assign(picks.begin(), picks.end());
    bridges = find_bridge_ends(cg.graph, p, 0, rumors);
  }

  CommunityGraph cg;
  Partition p;
  std::vector<NodeId> rumors;
  BridgeEndResult bridges;
};

TEST_P(CoreInvariantTest, RfstPathLengthsEqualDistances) {
  // The rumor forward search forest is bfs_forward from the originators;
  // walk each reached node's parent chain up to its root.
  const BfsResult f = bfs_forward(cg.graph, rumors);
  for (NodeId v = 0; v < cg.graph.num_nodes(); ++v) {
    if (!f.reached(v)) continue;
    std::vector<NodeId> path;
    for (NodeId cur = v; cur != kInvalidNode; cur = f.parent[cur]) {
      path.push_back(cur);
      ASSERT_LE(path.size(), f.dist.size()) << "cycle in BFS forest";
    }
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.size(), f.dist[v] + 1);
    // Path ends at a rumor originator and every hop is a real arc.
    EXPECT_NE(std::find(rumors.begin(), rumors.end(), path.back()),
              rumors.end());
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      EXPECT_TRUE(cg.graph.has_edge(path[i + 1], path[i]))
          << path[i + 1] << "->" << path[i];
    }
  }
}

// Test-local reference: hop distance from every node to `root`.
template <class G>
std::vector<std::uint32_t> dist_to(const G& g, NodeId root) {
  std::vector<std::uint32_t> dist(g.num_nodes(), kUnreached);
  std::vector<NodeId> queue{root};
  dist[root] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId w = queue[head];
    for (NodeId u : g.in_neighbors(w)) {
      if (dist[u] == kUnreached) {
        dist[u] = dist[w] + 1;
        queue.push_back(u);
      }
    }
  }
  return dist;
}

template <class G>
void expect_pool_is_timely_reachability(const G& g,
                                        const std::vector<NodeId>& rumors,
                                        const BridgeEndResult& bridges) {
  const RrPool pool = doam_bridge_end_pool(g, rumors, bridges);
  EXPECT_NO_THROW(pool.validate());
  ASSERT_EQ(pool.num_sets(), bridges.bridge_ends.size());
  const std::set<NodeId> rumor_set(rumors.begin(), rumors.end());
  for (std::size_t i = 0; i < pool.num_sets(); ++i) {
    // Membership <=> dist(w, b_i) <= d_R(b_i), w not a rumor.
    const NodeId root = bridges.bridge_ends[i];
    const std::vector<std::uint32_t> back = dist_to(g, root);
    std::vector<NodeId> want;
    for (NodeId w = 0; w < g.num_nodes(); ++w) {
      if (back[w] <= bridges.rumor_dist[root] && rumor_set.count(w) == 0) {
        want.push_back(w);
      }
    }
    const auto got = pool.set_nodes(i);
    EXPECT_EQ(std::vector<NodeId>(got.begin(), got.end()), want)
        << "root " << root;
  }
}

TEST_P(CoreInvariantTest, BbstMembershipIsExactlyTimelyReachability) {
  ASSERT_FALSE(bridges.bridge_ends.empty());
  expect_pool_is_timely_reachability(cg.graph, rumors, bridges);
  expect_pool_is_timely_reachability(EfGraph::from_csr(cg.graph), rumors,
                                     bridges);
}

TEST_P(CoreInvariantTest, GreedyCoverPicksAlwaysAddCoverage) {
  if (bridges.bridge_ends.empty()) GTEST_SKIP();
  const RrPool pool = doam_bridge_end_pool(cg.graph, rumors, bridges);
  const ScbgResult r = scbg_from_bridges(cg.graph, rumors, bridges);
  EXPECT_EQ(r.covered, bridges.bridge_ends.size());

  // Replay: every pick must add at least one newly covered bridge end, and
  // the marginal coverage sequence must be non-increasing (greedy order).
  std::set<std::uint32_t> covered;
  std::size_t prev_gain = pool.num_sets() + 1;
  for (NodeId v : r.protectors) {
    std::size_t gain = 0;
    for (std::uint32_t e : pool.sets_containing(v)) {
      gain += covered.insert(e).second;
    }
    EXPECT_GT(gain, 0u);
    EXPECT_LE(gain, prev_gain);
    prev_gain = gain;
  }
  EXPECT_EQ(covered.size(), pool.num_sets());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoreInvariantTest,
                         ::testing::Values(2, 3, 5, 8, 13));

}  // namespace
}  // namespace lcrb
