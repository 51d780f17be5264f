// Randomized invariant tests across the core algorithms.
#include <gtest/gtest.h>

#include <algorithm>
#include <ranges>
#include <set>

#include "graph/builder.h"
#include "graph/ef_graph.h"
#include "graph/generators.h"
#include "graph/traversal.h"
#include "lcrb/bbst_matrix.h"
#include "lcrb/bridge.h"
#include "lcrb/scbg.h"
#include "support/bbst_sets.h"
#include "util/rng.h"
#include "util/threadpool.h"

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
void expect_matrix_is_timely_reachability(const G& g,
                                          const std::vector<NodeId>& rumors,
                                          const BridgeEndResult& bridges) {
  const BbstMatrix m = build_bbst_matrix(g, rumors, bridges);
  EXPECT_NO_THROW(m.validate(g.num_nodes()));
  ASSERT_EQ(m.num_ends(), bridges.bridge_ends.size());
  const reference::BbstSets sets = reference::decode_bbsts(m, g.num_nodes());
  const std::set<NodeId> rumor_set(rumors.begin(), rumors.end());
  for (std::size_t i = 0; i < m.num_ends(); ++i) {
    // Membership <=> dist(w, b_i) <= d_R(b_i), w not a rumor.
    const NodeId root = bridges.bridge_ends[i];
    const std::vector<std::uint32_t> back = dist_to(g, root);
    std::vector<NodeId> want;
    for (NodeId w = 0; w < g.num_nodes(); ++w) {
      if (back[w] <= bridges.rumor_dist[root] && rumor_set.count(w) == 0) {
        want.push_back(w);
      }
    }
    EXPECT_EQ(sets.sets[i], want) << "root " << root;
  }
}

// Replays an SCBG cover against the decoded SW sets: every pick must add at
// least one newly covered bridge end, the marginal coverage must be
// non-increasing (greedy order), and the cover must be complete.
void expect_picks_add_coverage(const std::vector<NodeId>& picks,
                               const reference::BbstSets& sets) {
  std::set<std::uint32_t> covered;
  std::size_t prev_gain = sets.sets.size() + 1;
  for (NodeId v : picks) {
    std::size_t gain = 0;
    for (std::uint32_t e : sets.sw[v]) gain += covered.insert(e).second;
    EXPECT_GT(gain, 0u);
    EXPECT_LE(gain, prev_gain);
    prev_gain = gain;
  }
  EXPECT_EQ(covered.size(), sets.sets.size());
}

TEST_P(CoreInvariantTest, BbstMembershipIsExactlyTimelyReachability) {
  ASSERT_FALSE(bridges.bridge_ends.empty());
  expect_matrix_is_timely_reachability(cg.graph, rumors, bridges);
  expect_matrix_is_timely_reachability(EfGraph::from_csr(cg.graph), rumors,
                                       bridges);
}

TEST_P(CoreInvariantTest, GreedyCoverPicksAlwaysAddCoverage) {
  if (bridges.bridge_ends.empty()) GTEST_SKIP();
  const ScbgResult r = scbg_from_bridges(cg.graph, rumors, bridges);
  EXPECT_EQ(r.covered, bridges.bridge_ends.size());
  expect_picks_add_coverage(
      r.protectors,
      reference::decode_bbsts(build_bbst_matrix(cg.graph, rumors, bridges),
                              cg.graph.num_nodes()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoreInvariantTest,
                         ::testing::Values(2, 3, 5, 8, 13));

// ---------------------------------------------------------------------------
// A matrix of several 64-lane blocks: 150 bridge ends (two full blocks and a
// partial one) with mixed rumor distances, one of them next to a rumor seed.

class BbstMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(41);
    g_ = erdos_renyi(600, 0.007, /*directed=*/true, rng);
    rumors_ = {0, 1, 2};
    bridges_.rumor_dist = bfs_forward(g_, rumors_).dist;
    std::vector<NodeId>& ends = bridges_.bridge_ends;
    for (NodeId v = 3; v < g_.num_nodes() && ends.size() < 150; ++v) {
      if (bridges_.rumor_dist[v] != kUnreached) ends.push_back(v);
    }
  }

  DiGraph g_;
  std::vector<NodeId> rumors_;
  BridgeEndResult bridges_;
};

TEST_F(BbstMatrixTest, MultiBlockFixtureShape) {
  ASSERT_EQ(bridges_.bridge_ends.size(), 150u);
  EXPECT_NE(bridges_.bridge_ends.size() % BbstMatrix::kLanes, 0u);
  std::set<std::uint32_t> depths;
  bool next_to_rumor = false;
  for (NodeId b : bridges_.bridge_ends) {
    depths.insert(bridges_.rumor_dist[b]);
    next_to_rumor |= bridges_.rumor_dist[b] == 1;
  }
  EXPECT_GE(depths.size(), 3u);
  EXPECT_TRUE(next_to_rumor);
  const BbstMatrix m = build_bbst_matrix(g_, rumors_, bridges_);
  EXPECT_EQ(m.num_blocks(), 3u);
  EXPECT_EQ(m.block_lanes(2), 150u - 128u);
  // Lanes run deepest first.
  const auto lanes = m.lane_ends();
  for (std::size_t i = 1; i < lanes.size(); ++i) {
    EXPECT_GE(bridges_.rumor_dist[bridges_.bridge_ends[lanes[i - 1]]],
              bridges_.rumor_dist[bridges_.bridge_ends[lanes[i]]]);
  }
}

TEST_F(BbstMatrixTest, MultiBlockMembershipIsExactlyTimelyReachability) {
  expect_matrix_is_timely_reachability(g_, rumors_, bridges_);
  expect_matrix_is_timely_reachability(EfGraph::from_csr(g_), rumors_,
                                       bridges_);
}

TEST_F(BbstMatrixTest, MultiBlockCoverIsTheLinearScanGreedy) {
  // Reference: the textbook greedy set cover over the decoded SW sets, a
  // linear scan for the most newly covered ends, lowest node id on ties.
  const reference::BbstSets sets = reference::decode_bbsts(
      build_bbst_matrix(g_, rumors_, bridges_), g_.num_nodes());
  std::vector<char> covered(sets.sets.size(), 0);
  std::vector<NodeId> want;
  for (;;) {
    NodeId best = kInvalidNode;
    std::size_t best_gain = 0;
    for (NodeId v = 0; v < g_.num_nodes(); ++v) {
      std::size_t gain = 0;
      for (std::uint32_t e : sets.sw[v]) gain += covered[e] == 0;
      if (gain > best_gain) {
        best = v;
        best_gain = gain;
      }
    }
    if (best == kInvalidNode) break;
    want.push_back(best);
    for (std::uint32_t e : sets.sw[best]) covered[e] = 1;
  }
  const EfGraph ef = EfGraph::from_csr(g_);
  const ScbgResult csr = scbg_from_bridges(g_, rumors_, bridges_);
  const ScbgResult efr = scbg_from_bridges(ef, rumors_, bridges_);
  EXPECT_EQ(csr.protectors, want);
  EXPECT_EQ(efr.protectors, want);
  EXPECT_EQ(csr.covered, 150u);
  EXPECT_EQ(csr.candidate_count,
            static_cast<std::size_t>(std::count_if(
                sets.sw.begin(), sets.sw.end(),
                [](const auto& sw) { return !sw.empty(); })));
  expect_picks_add_coverage(csr.protectors, sets);
}

TEST_F(BbstMatrixTest, MultiBlockSweepIsThreadCountInvariant) {
  // Blocks are swept in parallel into their own slots: the matrix bytes,
  // the picks and candidate_count are identical with no pool, 1 thread and
  // 4 threads, on both backends.
  const EfGraph ef = EfGraph::from_csr(g_);
  ThreadPool one(1);
  ThreadPool four(4);
  const BbstMatrix serial = build_bbst_matrix(g_, rumors_, bridges_);
  const ScbgResult want = scbg_from_bridges(g_, rumors_, bridges_);
  for (ThreadPool* tp : {&one, &four}) {
    for (const BbstMatrix& m : {build_bbst_matrix(g_, rumors_, bridges_, tp),
                                build_bbst_matrix(ef, rumors_, bridges_, tp)}) {
      ASSERT_EQ(m.num_blocks(), serial.num_blocks());
      EXPECT_TRUE(std::ranges::equal(m.lane_ends(), serial.lane_ends()));
      for (std::size_t k = 0; k < serial.num_blocks(); ++k) {
        EXPECT_TRUE(std::ranges::equal(m.block_nodes(k), serial.block_nodes(k)))
            << "block " << k;
        EXPECT_TRUE(std::ranges::equal(m.block_words(k), serial.block_words(k)))
            << "block " << k;
      }
    }
    for (const ScbgResult& got :
         {scbg_from_bridges(g_, rumors_, bridges_, tp),
          scbg_from_bridges(ef, rumors_, bridges_, tp)}) {
      EXPECT_EQ(got.protectors, want.protectors);
      EXPECT_EQ(got.candidate_count, want.candidate_count);
    }
  }
}

TEST(BbstMatrixFootprint, ProportionalToNonzeroWords) {
  // 20 000 bridge ends with two-node BBSTs: the seed s feeds every
  // rumor-community node r_i, and each r_i has a private outside neighbour
  // o_i. BBST(o_i) = {r_i, o_i}, so the matrix holds 40 000 nonzero words;
  // a dense n * |B| / 64 layout would be 40 001 * 313 words, ~100 MB.
  constexpr NodeId kEnds = 20000;
  std::vector<std::pair<NodeId, NodeId>> arcs;
  for (NodeId i = 0; i < kEnds; ++i) {
    arcs.emplace_back(0, 1 + i);
    arcs.emplace_back(1 + i, 1 + kEnds + i);
  }
  const DiGraph g = make_graph(1 + 2 * kEnds, arcs);
  std::vector<CommunityId> membership(g.num_nodes(), 1);
  for (NodeId v = 0; v <= kEnds; ++v) membership[v] = 0;
  const std::vector<NodeId> rumors{0};
  const BridgeEndResult bridges =
      find_bridge_ends(g, Partition(membership), 0, rumors);
  ASSERT_EQ(bridges.bridge_ends.size(), kEnds);

  const BbstMatrix m = build_bbst_matrix(g, rumors, bridges);
  EXPECT_NO_THROW(m.validate(g.num_nodes()));
  EXPECT_EQ(m.nonzero_words(), 2u * kEnds);
  const std::size_t dense_bytes = std::size_t{g.num_nodes()} *
                                  m.num_blocks() * sizeof(std::uint64_t);
  EXPECT_LE(m.memory_bytes(), 32 * m.nonzero_words());
  EXPECT_LT(m.memory_bytes() * 100, dense_bytes);
  const reference::BbstSets sets = reference::decode_bbsts(m, g.num_nodes());
  for (NodeId i = 0; i < kEnds; ++i) {
    ASSERT_EQ(sets.sets[i], (std::vector<NodeId>{1 + i, 1 + kEnds + i}))
        << "bridge end " << i;
  }
  EXPECT_TRUE(sets.sw[0].empty());  // the rumor seed is in no row
}

}  // namespace
}  // namespace lcrb
