#include "graph/generators.h"

#include <gtest/gtest.h>

#include <numeric>

#include "graph/metrics.h"
#include "graph/traversal.h"
#include "util/rng.h"

namespace lcrb {
namespace {

TEST(Deterministic, PathGraph) {
  const DiGraph g = path_graph(4);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  const DiGraph u = path_graph(4, /*undirected=*/true);
  EXPECT_EQ(u.num_edges(), 6u);
  EXPECT_TRUE(u.has_edge(1, 0));
}

TEST(Deterministic, CycleGraph) {
  const DiGraph g = cycle_graph(5);
  EXPECT_EQ(g.num_edges(), 5u);
  EXPECT_TRUE(g.has_edge(4, 0));
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_EQ(g.out_degree(v), 1u);
    EXPECT_EQ(g.in_degree(v), 1u);
  }
  EXPECT_THROW(cycle_graph(1), Error);
}

TEST(Deterministic, StarGraph) {
  const DiGraph g = star_graph(6);
  EXPECT_EQ(g.out_degree(0), 5u);
  for (NodeId v = 1; v < 6; ++v) {
    EXPECT_EQ(g.in_degree(v), 1u);
    EXPECT_EQ(g.out_degree(v), 0u);
  }
}

TEST(Deterministic, CompleteGraph) {
  const DiGraph g = complete_graph(5);
  EXPECT_EQ(g.num_edges(), 20u);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(g.out_degree(v), 4u);
}

TEST(Deterministic, GridGraph) {
  const DiGraph g = grid_graph(3, 4);
  EXPECT_EQ(g.num_nodes(), 12u);
  // 3*3 horizontal + 2*4 vertical undirected edges = 17, doubled = 34 arcs.
  EXPECT_EQ(g.num_edges(), 34u);
  // Corner has degree 2, middle 4.
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.out_degree(5), 4u);
}

TEST(ErdosRenyi, EdgeCountNearExpectation) {
  Rng rng(42);
  const NodeId n = 500;
  const double p = 0.02;
  const DiGraph g = erdos_renyi(n, p, /*directed=*/true, rng);
  const double expected = p * n * (n - 1);
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected, expected * 0.15);
}

TEST(ErdosRenyi, UndirectedIsSymmetric) {
  Rng rng(43);
  const DiGraph g = erdos_renyi(100, 0.05, /*directed=*/false, rng);
  EXPECT_DOUBLE_EQ(reciprocity(g), 1.0);
}

TEST(ErdosRenyi, ZeroProbabilityEmpty) {
  Rng rng(1);
  const DiGraph g = erdos_renyi(50, 0.0, true, rng);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.num_nodes(), 50u);
}

TEST(ErdosRenyi, FullProbabilityComplete) {
  Rng rng(1);
  const DiGraph g = erdos_renyi(20, 1.0, true, rng);
  EXPECT_EQ(g.num_edges(), 20u * 19u);
}

TEST(ErdosRenyi, InvalidProbabilityThrows) {
  Rng rng(1);
  EXPECT_THROW(erdos_renyi(10, -0.1, true, rng), Error);
  EXPECT_THROW(erdos_renyi(10, 1.1, true, rng), Error);
}

TEST(ErdosRenyiM, ExactEdgeCount) {
  Rng rng(5);
  const DiGraph g = erdos_renyi_m(200, 1000, /*directed=*/true, rng);
  EXPECT_EQ(g.num_edges(), 1000u);
  const DiGraph u = erdos_renyi_m(200, 500, /*directed=*/false, rng);
  EXPECT_EQ(u.num_edges(), 1000u);  // 500 undirected edges = 1000 arcs
}

TEST(ErdosRenyiM, TooManyEdgesThrows) {
  Rng rng(5);
  EXPECT_THROW(erdos_renyi_m(5, 100, true, rng), Error);
}

TEST(BarabasiAlbert, DegreeSumAndHubs) {
  Rng rng(6);
  const NodeId n = 400;
  const DiGraph g = barabasi_albert(n, 3, rng);
  // Each new node adds 3 undirected edges (6 arcs) modulo the seed clique.
  EXPECT_GT(g.num_edges(), 2u * 3u * (n - 10));
  const DegreeStats s = degree_stats(g);
  // Preferential attachment should grow hubs well above the mean.
  EXPECT_GT(s.max_out, 4 * static_cast<NodeId>(s.avg_out));
  EXPECT_DOUBLE_EQ(reciprocity(g), 1.0);
}

TEST(BarabasiAlbert, InvalidParamsThrow) {
  Rng rng(1);
  EXPECT_THROW(barabasi_albert(5, 0, rng), Error);
  EXPECT_THROW(barabasi_albert(3, 3, rng), Error);
}

TEST(PowerLawSizes, SumsToTotal) {
  Rng rng(9);
  for (NodeId total : {100u, 1000u, 12345u}) {
    const auto sizes = power_law_sizes(total, 10, 200, 2.0, rng);
    EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), NodeId{0}), total);
    for (NodeId s : sizes) EXPECT_LE(s, 200u + 10u);  // remainder fold allowance
  }
}

TEST(PowerLawSizes, SkewedTowardSmall) {
  Rng rng(10);
  const auto sizes = power_law_sizes(20000, 10, 500, 2.5, rng);
  std::size_t small = 0;
  for (NodeId s : sizes) small += (s < 50);
  EXPECT_GT(static_cast<double>(small) / static_cast<double>(sizes.size()), 0.5);
}

TEST(CommunityGraph, MembershipMatchesPlantedSizes) {
  CommunityGraphConfig cfg;
  cfg.community_sizes = {30, 50, 20};
  cfg.seed = 3;
  const CommunityGraph cg = make_community_graph(cfg);
  EXPECT_EQ(cg.graph.num_nodes(), 100u);
  EXPECT_EQ(cg.num_communities, 3u);
  std::vector<int> counts(3, 0);
  for (CommunityId c : cg.membership) ++counts[c];
  EXPECT_EQ(counts[0], 30);
  EXPECT_EQ(counts[1], 50);
  EXPECT_EQ(counts[2], 20);
}

TEST(CommunityGraph, IntraDenserThanInter) {
  CommunityGraphConfig cfg;
  cfg.community_sizes = {200, 200, 200, 200};
  cfg.avg_intra_degree = 8.0;
  cfg.avg_inter_degree = 1.0;
  cfg.seed = 11;
  const CommunityGraph cg = make_community_graph(cfg);
  EdgeId intra = 0, inter = 0;
  for (NodeId u = 0; u < cg.graph.num_nodes(); ++u) {
    for (NodeId v : cg.graph.out_neighbors(u)) {
      (cg.membership[u] == cg.membership[v] ? intra : inter)++;
    }
  }
  EXPECT_GT(intra, 4 * inter);
}

TEST(CommunityGraph, SymmetricFlagProducesSymmetricArcs) {
  CommunityGraphConfig cfg;
  cfg.community_sizes = {100, 100};
  cfg.symmetric = true;
  cfg.seed = 12;
  const CommunityGraph cg = make_community_graph(cfg);
  EXPECT_DOUBLE_EQ(reciprocity(cg.graph), 1.0);
}

TEST(CommunityGraph, DeterministicInSeed) {
  CommunityGraphConfig cfg;
  cfg.community_sizes = {50, 50};
  cfg.seed = 77;
  const CommunityGraph a = make_community_graph(cfg);
  const CommunityGraph b = make_community_graph(cfg);
  EXPECT_EQ(a.graph.num_edges(), b.graph.num_edges());
  for (NodeId u = 0; u < a.graph.num_nodes(); ++u) {
    const auto x = a.graph.out_neighbors(u);
    const auto y = b.graph.out_neighbors(u);
    ASSERT_EQ(x.size(), y.size());
    EXPECT_TRUE(std::equal(x.begin(), x.end(), y.begin()));
  }
}

TEST(CommunityGraph, InvalidConfigThrows) {
  CommunityGraphConfig cfg;
  EXPECT_THROW(make_community_graph(cfg), Error);  // no communities
  cfg.community_sizes = {0, 5};
  EXPECT_THROW(make_community_graph(cfg), Error);  // zero-size community
  cfg.community_sizes = {5};
  cfg.avg_intra_degree = -1;
  EXPECT_THROW(make_community_graph(cfg), Error);
}

TEST(DatasetSubstitutes, HepShapeAtSmallScale) {
  const DatasetSubstitute ds = make_hep_like(1, 0.1);
  const DiGraph& g = ds.net.graph;
  EXPECT_NEAR(g.num_nodes(), 1523, 10);
  // Average degree close to the Hep target of 7.73 (generator dedup loses a
  // little).
  EXPECT_NEAR(g.average_out_degree(), 7.7, 1.6);
  EXPECT_DOUBLE_EQ(reciprocity(g), 1.0);
  // Planted community exists and has roughly scaled size (~31).
  ASSERT_EQ(ds.planted_medium, 0u);
  std::size_t planted_size = 0;
  for (CommunityId c : ds.net.membership) planted_size += (c == 0);
  EXPECT_NEAR(static_cast<double>(planted_size), 31.0, 3.0);
}

TEST(DatasetSubstitutes, EnronShapeAtSmallScale) {
  const DatasetSubstitute ds = make_enron_like(1, 0.05);
  const DiGraph& g = ds.net.graph;
  EXPECT_NEAR(g.num_nodes(), 1835, 10);
  EXPECT_NEAR(g.average_out_degree(), 10.0, 2.5);
  EXPECT_LT(reciprocity(g), 0.9);  // directed network
  ASSERT_EQ(ds.planted_small, 0u);
  ASSERT_EQ(ds.planted_medium, 1u);
}

// Calibration at the scales the bench harness actually uses.
class DatasetCalibrationTest : public ::testing::TestWithParam<double> {};

TEST_P(DatasetCalibrationTest, HepDensityAndSymmetryHold) {
  const double scale = GetParam();
  const DatasetSubstitute ds = make_hep_like(1, scale);
  EXPECT_NEAR(ds.net.graph.average_out_degree(), 7.7, 1.6);
  EXPECT_DOUBLE_EQ(reciprocity(ds.net.graph), 1.0);
  // The planted rumor community exists at its scaled size.
  std::size_t planted = 0;
  for (CommunityId c : ds.net.membership) planted += (c == ds.planted_medium);
  EXPECT_NEAR(static_cast<double>(planted), 308.0 * scale,
              0.15 * 308.0 * scale + 12);
}

TEST_P(DatasetCalibrationTest, EnronDensityAndDirectionHold) {
  const double scale = GetParam();
  const DatasetSubstitute ds = make_enron_like(1, scale);
  EXPECT_NEAR(ds.net.graph.average_out_degree(), 10.0, 2.0);
  EXPECT_LT(reciprocity(ds.net.graph), 0.9);
  std::size_t small = 0, large = 0;
  for (CommunityId c : ds.net.membership) {
    small += (c == ds.planted_small);
    large += (c == ds.planted_medium);
  }
  EXPECT_NEAR(static_cast<double>(large), 2631.0 * scale,
              0.15 * 2631.0 * scale + 32);
  EXPECT_LT(small, large);
}

INSTANTIATE_TEST_SUITE_P(BenchScales, DatasetCalibrationTest,
                         ::testing::Values(0.1, 0.2, 0.3, 0.5));

TEST(DatasetSubstitutes, InvalidScaleThrows) {
  EXPECT_THROW(make_hep_like(1, 0.0), Error);
  EXPECT_THROW(make_enron_like(1, 1.5), Error);
}

}  // namespace
}  // namespace lcrb
