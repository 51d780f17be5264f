#include "diffusion/doam.h"

#include <gtest/gtest.h>

#include "diffusion/montecarlo.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/traversal.h"
#include "util/rng.h"

namespace lcrb {
namespace {

// No hop cap (the diffusion is finite anyway).
const RealizationParams kUncapped{.max_hops = 0xffffffff};
constexpr DiffusionModel kDoam = DiffusionModel::kDoam;

TEST(Doam, RumorAloneFloodsReachableSet) {
  const DiGraph g = path_graph(5);
  const DiffusionResult r = simulate(g, {{0}, {}}, 0, kDoam, kUncapped);
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_EQ(r.state[v], NodeState::kInfected);
    EXPECT_EQ(r.activation_step[v], v);
  }
  EXPECT_EQ(r.steps, 4u);
}

TEST(Doam, ProtectorWinsTie) {
  // 0 -> 2 <- 1; rumor at 0, protector at 1: both reach 2 at step 1.
  const DiGraph g = make_graph(3, {{0, 2}, {1, 2}});
  const DiffusionResult r = simulate(g, {{0}, {1}}, 0, kDoam, kUncapped);
  EXPECT_EQ(r.state[2], NodeState::kProtected);
}

TEST(Doam, RumorWinsWhenStrictlyCloser) {
  // rumor 0 -> 1 -> 2 ; protector 3 -> 4 -> 2 is longer path.
  const DiGraph g = make_graph(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}, {5, 2}});
  const DiffusionResult r = simulate(g, {{0}, {3}}, 0, kDoam, kUncapped);
  EXPECT_EQ(r.state[2], NodeState::kInfected);
}

TEST(Doam, ProtectedNodesBlockRumorPaths) {
  // Line 0 -> 1 -> 2 -> 3 with protector seeded at 2: rumor stops at 1.
  const DiGraph g = path_graph(4);
  const DiffusionResult r = simulate(g, {{0}, {2}}, 0, kDoam, kUncapped);
  EXPECT_EQ(r.state[1], NodeState::kInfected);
  EXPECT_EQ(r.state[2], NodeState::kProtected);
  EXPECT_EQ(r.state[3], NodeState::kProtected);  // P spreads through 2
}

TEST(Doam, InfectedNodesBlockProtectorPaths) {
  // Protector's only path to 3 runs through 1, which the rumor grabs first.
  const DiGraph g = make_graph(4, {{0, 1}, {2, 1}, {1, 3}});
  // dist_R(1)=1 via 0; protector at 2 also dist 1 -> P wins tie; flip so R
  // is closer: add direct rumor shortcut.
  const DiGraph g2 = make_graph(5, {{0, 1}, {4, 2}, {2, 1}, {1, 3}});
  // R: 0 -> 1 (step 1). P: 4 -> 2 (step 1) -> 1 (step 2, blocked).
  const DiffusionResult r = simulate(g2, {{0}, {4}}, 0, kDoam, kUncapped);
  EXPECT_EQ(r.state[1], NodeState::kInfected);
  EXPECT_EQ(r.state[3], NodeState::kInfected);
  (void)g;
}

TEST(Doam, EachNodeBroadcastsOnce) {
  const DiGraph g = star_graph(6);
  const DiffusionResult r = simulate(g, {{0}, {}}, 0, kDoam, kUncapped);
  EXPECT_EQ(r.infected_count(), 6u);
  EXPECT_EQ(r.steps, 1u);  // hub broadcast reaches everyone in one step
}

TEST(Doam, MaxStepsCapsSpread) {
  const DiGraph g = path_graph(10);
  const DiffusionResult r =
      simulate(g, {{0}, {}}, 0, kDoam, {.max_hops = 3});
  EXPECT_EQ(r.infected_count(), 4u);  // seed + 3 hops
}

TEST(Doam, DisjointSeedsRequired) {
  const DiGraph g = path_graph(3);
  EXPECT_THROW(simulate(g, {{0}, {0}}, 0, kDoam, kUncapped), Error);
}

TEST(Doam, NewlySeriesConsistent) {
  const DiGraph g = path_graph(6, /*undirected=*/true);
  const DiffusionResult r = simulate(g, {{0}, {5}}, 0, kDoam, kUncapped);
  std::size_t inf = 0, prot = 0;
  for (auto c : r.newly_infected) inf += c;
  for (auto c : r.newly_protected) prot += c;
  EXPECT_EQ(inf, r.infected_count());
  EXPECT_EQ(prot, r.protected_count());
  EXPECT_EQ(inf + prot, 6u);  // everything reachable gets claimed
}

// The analytic rule: v saved  <=>  dist_P(v) <= dist_R(v).
class DoamOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DoamOracleTest, SimulationMatchesDistanceRule) {
  Rng rng(GetParam());
  const DiGraph g = erdos_renyi(120, 0.03, /*directed=*/true, rng);

  // Random disjoint seed sets.
  SeedSets seeds;
  std::vector<bool> used(g.num_nodes(), false);
  for (int i = 0; i < 4; ++i) {
    const auto v = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    if (!used[v]) {
      used[v] = true;
      seeds.rumors.push_back(v);
    }
  }
  for (int i = 0; i < 4; ++i) {
    const auto v = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    if (!used[v]) {
      used[v] = true;
      seeds.protectors.push_back(v);
    }
  }
  if (seeds.rumors.empty() || seeds.protectors.empty()) GTEST_SKIP();

  const DiffusionResult sim = simulate(g, seeds, 0, kDoam, kUncapped);
  const BfsResult dp = bfs_forward(g, seeds.protectors);
  const BfsResult dr = bfs_forward(g, seeds.rumors);

  std::vector<NodeId> all(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) all[v] = v;
  const std::vector<bool> saved = doam_saved(g, seeds, all);

  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const bool sim_saved = sim.state[v] != NodeState::kInfected;
    EXPECT_EQ(sim_saved, dp.dist[v] <= dr.dist[v]) << "node " << v;
    EXPECT_EQ(saved[v], sim_saved) << "node " << v;
    // Activation times match BFS distances for claimed nodes.
    if (sim.state[v] == NodeState::kInfected) {
      EXPECT_EQ(sim.activation_step[v], dr.dist[v]);
    } else if (sim.state[v] == NodeState::kProtected) {
      EXPECT_EQ(sim.activation_step[v], dp.dist[v]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DoamOracleTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 42));

}  // namespace
}  // namespace lcrb
