// SCBG's set cover: the lazy coverage greedy over the DOAM bridge-end
// matrix (and, sharing its core, RIS's coverage_greedy over a DOAM RR pool),
// on graphs built so the cover instance is a chosen family of sets, plus the
// exact oracle the approximation tests compare against.
#include <gtest/gtest.h>

#include <algorithm>

#include "graph/builder.h"
#include "graph/traversal.h"
#include "lcrb/bbst_matrix.h"
#include "lcrb/lazy_cover.h"
#include "lcrb/ris.h"
#include "lcrb/scbg.h"
#include "support/bbst_sets.h"
#include "support/set_cover_oracle.h"
#include "util/error.h"

namespace lcrb {
namespace {

using statcheck::CoverInstance;
using statcheck::CoverResult;
using statcheck::exact_set_cover;

// A graph whose SCBG cover instance is `sets` over `universe` bridge ends,
// plus the singletons every bridge end and its feeder provide. Node 0 is
// the rumor, which reaches bridge end e over a private two-hop path
// (0 -> feeder -> end), so every end has rumor distance 2. Set s is node
// 1 + s, with an arc to each of its ends: lower set index, lower node id.
struct CoverGraph {
  DiGraph g;
  std::vector<NodeId> rumors{0};
  BridgeEndResult bridges;

  NodeId node_of_set(std::size_t s) const {
    return static_cast<NodeId>(1 + s);
  }
};

CoverGraph cover_graph(std::uint32_t universe,
                       const std::vector<std::vector<std::uint32_t>>& sets) {
  const auto m = static_cast<NodeId>(sets.size());
  const NodeId first_end = 1 + m;
  const NodeId first_feeder = first_end + universe;
  std::vector<std::pair<NodeId, NodeId>> arcs;
  for (std::uint32_t e = 0; e < universe; ++e) {
    arcs.emplace_back(0, first_feeder + e);
    arcs.emplace_back(first_feeder + e, first_end + e);
  }
  for (NodeId s = 0; s < m; ++s) {
    for (std::uint32_t e : sets[s]) arcs.emplace_back(1 + s, first_end + e);
  }
  CoverGraph out;
  out.g = make_graph(first_feeder + universe, arcs);
  for (std::uint32_t e = 0; e < universe; ++e) {
    out.bridges.bridge_ends.push_back(first_end + e);
  }
  out.bridges.rumor_dist = bfs_forward(out.g, out.rumors).dist;
  return out;
}

std::vector<NodeId> scbg_picks(const CoverGraph& c) {
  return scbg_from_bridges(c.g, c.rumors, c.bridges).protectors;
}

TEST(GreedySetCover, EmptyUniverseTriviallyComplete) {
  const CoverGraph c = cover_graph(0, {{}});
  const ScbgResult r = scbg_from_bridges(c.g, c.rumors, c.bridges);
  EXPECT_TRUE(r.protectors.empty());
  EXPECT_EQ(r.covered, 0u);
  const BbstMatrix empty = build_bbst_matrix(c.g, c.rumors, c.bridges);
  EXPECT_EQ(empty.num_blocks(), 0u);
  EXPECT_TRUE(cover_bbst_matrix(empty, c.g.num_nodes()).picks.empty());
}

TEST(GreedySetCover, SingleSetCoversAll) {
  const CoverGraph c = cover_graph(3, {{0, 1, 2}, {0}, {1}});
  EXPECT_EQ(scbg_picks(c), (std::vector<NodeId>{c.node_of_set(0)}));
}

TEST(GreedySetCover, PicksLargestFirst) {
  const CoverGraph c = cover_graph(5, {{0, 1}, {2, 3, 4}, {0, 4}});
  // The 3-element set first, then the pair that finishes the cover.
  EXPECT_EQ(scbg_picks(c),
            (std::vector<NodeId>{c.node_of_set(1), c.node_of_set(0)}));
}

TEST(GreedySetCover, PartialCoverageReported) {
  // A pick cap stops the shared lazy greedy short (RIS's max_protectors);
  // it reports what it covered.
  const CoverGraph c = cover_graph(4, {{0, 1}, {1}});
  const reference::BbstSets sets = reference::decode_bbsts(
      build_bbst_matrix(c.g, c.rumors, c.bridges), c.g.num_nodes());
  std::vector<std::uint32_t> cnt(c.g.num_nodes(), 0);
  for (NodeId v = 0; v < c.g.num_nodes(); ++v) {
    cnt[v] = static_cast<std::uint32_t>(sets.sw[v].size());
  }
  std::vector<char> covered(sets.sets.size(), 0);
  CoverageGreedyOutcome r;
  lazy_greedy_cover(
      cnt, 1, [&] { return r.covered < sets.sets.size(); },
      [&](NodeId best) {
        for (std::uint32_t e : sets.sw[best]) {
          if (covered[e]) continue;
          covered[e] = 1;
          ++r.covered;
          for (NodeId w : sets.sets[e]) --cnt[w];
        }
      },
      r);
  EXPECT_EQ(r.covered, 2u);
  EXPECT_EQ(r.picks, (std::vector<NodeId>{c.node_of_set(0)}));
  EXPECT_EQ(r.gains, (std::vector<std::size_t>{2}));
}

TEST(GreedySetCover, RrPoolCoverageGreedyUnderPickCap) {
  // RIS's coverage_greedy runs the same lazy core over a DOAM RR pool. Each
  // RR set is the BBST of a bridge end drawn at random: set 0's node covers
  // every set rooted at ends 0 and 1, more than any other node, so a cap of
  // one pick takes it and covers exactly those sets.
  const CoverGraph c = cover_graph(4, {{0, 1}, {1}});
  RisConfig cfg;
  cfg.model = DiffusionModel::kDoam;
  RrSampler sampler(c.g, c.rumors, c.bridges.bridge_ends, cfg);
  RrPool pool;
  sampler.extend(pool, 0, 400);
  std::size_t rooted_at_set0 = 0;
  for (std::size_t i = 0; i < pool.num_sets(); ++i) {
    rooted_at_set0 += sampler.draw(0, i).root_idx <= 1 ? 1 : 0;
  }
  ASSERT_GT(rooted_at_set0, 0u);
  ASSERT_LT(rooted_at_set0, pool.num_sets());
  const CoverageGreedyOutcome r =
      coverage_greedy(pool, c.g.num_nodes(), 1.0, 1, pool.num_sets());
  EXPECT_EQ(r.picks, (std::vector<NodeId>{c.node_of_set(0)}));
  EXPECT_EQ(r.covered, rooted_at_set0);
  EXPECT_EQ(r.gains, (std::vector<std::size_t>{rooted_at_set0}));
  // Every non-rumor node lies in some RR set.
  EXPECT_EQ(r.candidates, static_cast<std::size_t>(c.g.num_nodes() - 1));
  // An empty prefix of the pool has nothing to cover.
  EXPECT_TRUE(coverage_greedy(pool, c.g.num_nodes(), 1.0, 0, 0).picks.empty());
}

TEST(GreedySetCover, DuplicateElementsDoNotInflate) {
  // Node 1 reaches bridge end 2 over two paths (1 -> 2, 1 -> 5 -> 2) but
  // saves it once: its count is 1, not 2, so node 3, which saves both
  // ends, wins outright instead of losing a tie to the lower id.
  const DiGraph g = make_graph(
      7, {{0, 5}, {5, 2}, {0, 6}, {6, 4}, {1, 2}, {1, 5}, {3, 2}, {3, 4}});
  const std::vector<NodeId> rumors{0};
  BridgeEndResult b;
  b.bridge_ends = {2, 4};
  b.rumor_dist = bfs_forward(g, rumors).dist;
  const reference::BbstSets sets =
      reference::decode_bbsts(build_bbst_matrix(g, rumors, b), g.num_nodes());
  EXPECT_EQ(sets.sw[1].size(), 1u);
  EXPECT_EQ(std::count(sets.sets[0].begin(), sets.sets[0].end(), NodeId{1}),
            1);
  EXPECT_EQ(scbg_from_bridges(g, rumors, b).protectors,
            (std::vector<NodeId>{3}));
}

TEST(GreedySetCover, ElementOutOfUniverseThrows) {
  // A bridge end that is not a node of the graph is rejected.
  CoverGraph c = cover_graph(2, {{0, 1}});
  c.bridges.bridge_ends.push_back(c.g.num_nodes());
  c.bridges.rumor_dist.push_back(2);
  EXPECT_THROW(scbg_from_bridges(c.g, c.rumors, c.bridges), Error);
}

TEST(GreedySetCover, ClassicLogFactorExample) {
  // The standard bad instance: greedy picks the geometric ladder instead of
  // the two-set optimum. Checks the H_n bound, not optimality.
  const std::vector<std::vector<std::uint32_t>> sets = {
      {0, 2, 4, 6, 8, 10, 12}, {1, 3, 5, 7, 9, 11, 13},  // optimal pair
      {6, 7, 8, 9, 10, 11, 12, 13}, {2, 3, 4, 5}, {0, 1}};
  const CoverGraph c = cover_graph(14, sets);
  const std::vector<NodeId> greedy = scbg_picks(c);
  EXPECT_EQ(greedy, (std::vector<NodeId>{c.node_of_set(2), c.node_of_set(3),
                                         c.node_of_set(4)}));
  // No single node covers all 14 ends, and two do: OPT = 2.
  const CoverResult exact = exact_set_cover({14, sets});
  EXPECT_EQ(exact.chosen.size(), 2u);
  EXPECT_LE(static_cast<double>(greedy.size()),
            statcheck::harmonic(8) * static_cast<double>(exact.chosen.size()));
}

TEST(ExactSetCover, FindsMinimum) {
  CoverInstance inst;
  inst.universe_size = 4;
  inst.sets = {{0}, {1}, {2}, {3}, {0, 1}, {2, 3}};
  const CoverResult r = exact_set_cover(inst);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.chosen, (std::vector<std::uint32_t>{4, 5}));
}

TEST(ExactSetCover, ReportsInfeasible) {
  CoverInstance inst;
  inst.universe_size = 3;
  inst.sets = {{0}, {1}};
  const CoverResult r = exact_set_cover(inst);
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.covered, 2u);
}

TEST(ExactSetCover, TooLargeThrows) {
  CoverInstance inst;
  inst.universe_size = 1;
  inst.sets.assign(30, {0});
  EXPECT_THROW(exact_set_cover(inst, 24), Error);
}

}  // namespace
}  // namespace lcrb
