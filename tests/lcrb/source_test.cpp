#include "lcrb/source.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "diffusion/montecarlo.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace lcrb {
namespace {

// No hop cap.
const RealizationParams kUncapped{.max_hops = 0xffffffff};
constexpr DiffusionModel kDoam = DiffusionModel::kDoam;

std::vector<NodeId> infected_set(const DiffusionResult& r) {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < r.state.size(); ++v) {
    if (r.state[v] == NodeState::kInfected) out.push_back(v);
  }
  return out;
}

TEST(SourceLocate, PathSourceIsExact) {
  // Rumor starts at 0 on a directed path: infected = everything; the only
  // node reaching all others going forward is 0.
  const DiGraph g = path_graph(9);
  const DiffusionResult r = simulate(g, {{0}, {}}, 0, kDoam, kUncapped);
  const SourceEstimate e = locate_sources(g, infected_set(r));
  EXPECT_EQ(e.sources, (std::vector<NodeId>{0}));
  EXPECT_EQ(e.radius, 8u);
  EXPECT_EQ(e.unreachable, 0u);
}

TEST(SourceLocate, UndirectedPathCenterFound) {
  // Symmetric path infected entirely from the middle: Jordan center is the
  // true middle source.
  const DiGraph g = path_graph(11, /*undirected=*/true);
  const DiffusionResult r = simulate(g, {{5}, {}}, 0, kDoam, kUncapped);
  const SourceEstimate e = locate_sources(g, infected_set(r));
  EXPECT_EQ(e.sources, (std::vector<NodeId>{5}));
  EXPECT_EQ(e.radius, 5u);
}

TEST(SourceLocate, StarHubIdentified) {
  const DiGraph g = star_graph(12, /*undirected=*/true);
  const DiffusionResult r = simulate(g, {{0}, {}}, 0, kDoam, kUncapped);
  const SourceEstimate e = locate_sources(g, infected_set(r));
  EXPECT_EQ(e.sources, (std::vector<NodeId>{0}));
  EXPECT_EQ(e.radius, 1u);
}

TEST(SourceLocate, CentroidDiffersFromJordanWhenAsymmetric) {
  // A "broom": long handle plus a fan. The centroid is pulled toward the
  // fan; Jordan balances the extremes. At minimum both must run and return
  // a single infected node.
  GraphBuilder b;
  for (NodeId v = 0; v + 1 < 8; ++v) b.add_undirected_edge(v, v + 1);
  for (NodeId leaf = 8; leaf < 16; ++leaf) b.add_undirected_edge(7, leaf);
  const DiGraph g = b.finalize();
  const DiffusionResult r = simulate(g, {{4}, {}}, 0, kDoam, kUncapped);
  const auto snapshot = infected_set(r);

  SourceLocateConfig jordan;
  jordan.score = SourceScore::kEccentricity;
  SourceLocateConfig centroid;
  centroid.score = SourceScore::kDistanceSum;
  const SourceEstimate ej = locate_sources(g, snapshot, jordan);
  const SourceEstimate ec = locate_sources(g, snapshot, centroid);
  ASSERT_EQ(ej.sources.size(), 1u);
  ASSERT_EQ(ec.sources.size(), 1u);
  // Centroid sits at or beyond the Jordan center toward the fan.
  EXPECT_GE(ec.sources[0], ej.sources[0]);
}

TEST(SourceLocate, TwoSourcesOnDisconnectedRegions) {
  // Two separate infected paths: one source per region required.
  GraphBuilder b;
  for (NodeId v = 0; v + 1 < 5; ++v) b.add_edge(v, v + 1);
  for (NodeId v = 10; v + 1 < 15; ++v) b.add_edge(v, v + 1);
  const DiGraph g = b.finalize();
  const DiffusionResult r = simulate(g, {{0, 10}, {}}, 0, kDoam, kUncapped);

  SourceLocateConfig cfg;
  cfg.num_sources = 2;
  const SourceEstimate e = locate_sources(g, infected_set(r), cfg);
  EXPECT_EQ(e.sources, (std::vector<NodeId>{0, 10}));
  EXPECT_EQ(e.unreachable, 0u);
}

TEST(SourceLocate, SingleEstimateOnTwoRegionsReportsUnreachable) {
  GraphBuilder b;
  b.add_edge(0, 1);
  b.add_edge(5, 6);
  const DiGraph g = b.finalize();
  const DiffusionResult r = simulate(g, {{0, 5}, {}}, 0, kDoam, kUncapped);
  const SourceEstimate e = locate_sources(g, infected_set(r));
  EXPECT_EQ(e.sources.size(), 1u);
  EXPECT_GT(e.unreachable, 0u);
}

TEST(SourceLocate, ValidatesInput) {
  const DiGraph g = path_graph(4);
  EXPECT_THROW(locate_sources(g, {}), Error);
  SourceLocateConfig cfg;
  cfg.num_sources = 0;
  const NodeId snap[] = {0, 1};
  EXPECT_THROW(locate_sources(g, snap, cfg), Error);
  cfg.num_sources = 1;
  cfg.max_snapshot = 1;
  EXPECT_THROW(locate_sources(g, snap, cfg), Error);
}

TEST(SourceError, MeasuresForwardDistance) {
  const DiGraph g = path_graph(6);
  const NodeId truth[] = {0};
  const NodeId est_exact[] = {0};
  const NodeId est_off[] = {3};
  EXPECT_EQ(source_error(g, truth, est_exact),
            (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(source_error(g, truth, est_off), (std::vector<std::uint32_t>{3}));
  // Unreachable estimate (behind the source on a directed path).
  const NodeId truth2[] = {3};
  const NodeId est_behind[] = {0};
  EXPECT_EQ(source_error(g, truth2, est_behind),
            (std::vector<std::uint32_t>{kUnreached}));
}

// Property: on community graphs, the Jordan estimate lands within a few hops
// of the true source of a DOAM epidemic.
class SourceRecoveryTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SourceRecoveryTest, JordanCenterNearTrueSource) {
  CommunityGraphConfig cfg;
  cfg.community_sizes = {120, 120};
  cfg.avg_intra_degree = 5.0;
  cfg.avg_inter_degree = 0.4;
  cfg.symmetric = true;  // undirected spread keeps the ball centered
  cfg.seed = GetParam();
  const CommunityGraph cg = make_community_graph(cfg);

  Rng rng(GetParam() * 7 + 3);
  const auto truth = static_cast<NodeId>(rng.next_below(120));
  // Partial snapshot: the ball of radius 3.
  const DiffusionResult r =
      simulate(cg.graph, {{truth}, {}}, 0, kDoam,
               {.max_hops = 3});
  const auto snapshot = infected_set(r);
  if (snapshot.size() < 10) GTEST_SKIP() << "degenerate draw";

  const SourceEstimate e = locate_sources(cg.graph, snapshot);
  ASSERT_EQ(e.sources.size(), 1u);
  const NodeId truth_arr[] = {truth};
  const auto err = source_error(cg.graph, truth_arr, e.sources);
  EXPECT_LE(err[0], 2u) << "estimate " << e.sources[0] << " truth " << truth;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SourceRecoveryTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace lcrb
