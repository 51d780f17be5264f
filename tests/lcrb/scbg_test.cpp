#include "lcrb/scbg.h"

#include <gtest/gtest.h>

#include "community/louvain.h"
#include "diffusion/montecarlo.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace lcrb {
namespace {

const std::vector<NodeId> kRumor0{0};

TEST(Scbg, EmptyWhenNoBridgeEnds) {
  const DiGraph g = make_graph(3, {{0, 1}});
  const Partition p(std::vector<CommunityId>{0, 0, 1});
  const ScbgResult r =
      scbg_from_bridges(g, kRumor0, find_bridge_ends(g, p, 0, kRumor0));
  EXPECT_TRUE(r.protectors.empty());
  EXPECT_TRUE(r.bridge_ends.empty());
}

TEST(Scbg, SingleBridgeEndOneProtector) {
  // 0(rumor) -> 1 -> 2 | community boundary | -> 3.
  const DiGraph g = make_graph(4, {{0, 1}, {1, 2}, {2, 3}});
  const Partition p(std::vector<CommunityId>{0, 0, 0, 1});
  const ScbgResult r =
      scbg_from_bridges(g, kRumor0, find_bridge_ends(g, p, 0, kRumor0));
  EXPECT_EQ(r.bridge_ends, (std::vector<NodeId>{3}));
  EXPECT_EQ(r.protectors.size(), 1u);
}

TEST(Scbg, SharedAncestorCoversManyBridgeEnds) {
  // Rumor 0 -> hub 1 -> {2,3,4} bridge ends; protecting hub 1 covers all.
  const DiGraph g = make_graph(5, {{0, 1}, {1, 2}, {1, 3}, {1, 4}});
  const Partition p(std::vector<CommunityId>{0, 0, 1, 1, 1});
  const ScbgResult r =
      scbg_from_bridges(g, kRumor0, find_bridge_ends(g, p, 0, kRumor0));
  EXPECT_EQ(r.bridge_ends.size(), 3u);
  ASSERT_EQ(r.protectors.size(), 1u);
  EXPECT_EQ(r.protectors[0], 1u);
}

TEST(Scbg, PrefersOneCovererOverManySingletons) {
  // Two bridge ends each reachable from a shared node w at distance <= d.
  const DiGraph g = make_graph(8, {{0, 1}, {1, 2}, {2, 3},   // rumor chain
                                   {1, 4}, {4, 5},           // second chain
                                   {6, 3}, {6, 5}, {7, 6}});
  const Partition p(std::vector<CommunityId>{0, 0, 0, 1, 0, 1, 1, 1});
  // Bridge ends: 3 (dist 3), 5 (dist 3). Nodes 1 and 6 each reach both in
  // time, so a single protector suffices.
  const ScbgResult r =
      scbg_from_bridges(g, kRumor0, find_bridge_ends(g, p, 0, kRumor0));
  ASSERT_EQ(r.bridge_ends.size(), 2u);
  ASSERT_EQ(r.protectors.size(), 1u);
  EXPECT_TRUE(r.protectors[0] == 1u || r.protectors[0] == 6u);
}

// THE paper guarantee: SCBG output protects every bridge end under DOAM.
class ScbgGuaranteeTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScbgGuaranteeTest, AllBridgeEndsProtectedUnderDoam) {
  CommunityGraphConfig cfg;
  cfg.community_sizes = {80, 80, 80, 60};
  cfg.avg_intra_degree = 6.0;
  cfg.avg_inter_degree = 1.2;
  cfg.seed = GetParam();
  const CommunityGraph cg = make_community_graph(cfg);
  const Partition p(cg.membership);

  Rng rng(GetParam() * 13 + 1);
  const auto& members = p.members(0);
  std::vector<NodeId> rumors;
  for (int i = 0; i < 5 && rumors.size() < 3; ++i) {
    const NodeId v = members[rng.next_below(members.size())];
    if (std::find(rumors.begin(), rumors.end(), v) == rumors.end()) {
      rumors.push_back(v);
    }
  }

  // SCBG re-checks its cover internally and throws on violation; also
  // assert the simulated cascade here for belt and braces.
  const ScbgResult r = scbg_from_bridges(
      cg.graph, rumors, find_bridge_ends(cg.graph, p, 0, rumors));
  SeedSets seeds;
  seeds.rumors = rumors;
  seeds.protectors = r.protectors;
  const DiffusionResult sim = simulate(cg.graph, seeds, 0,
                                      DiffusionModel::kDoam,
                                      {.max_hops = 0xffffffff});
  for (NodeId b : r.bridge_ends) {
    EXPECT_NE(sim.state[b], NodeState::kInfected) << "bridge end " << b;
  }
  // Cost sanity: never more protectors than bridge ends.
  EXPECT_LE(r.protectors.size(), r.bridge_ends.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScbgGuaranteeTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Scbg, WorksWithDetectedCommunities) {
  CommunityGraphConfig cfg;
  cfg.community_sizes = {70, 70, 70};
  cfg.avg_intra_degree = 7.0;
  cfg.avg_inter_degree = 0.6;
  cfg.seed = 42;
  const CommunityGraph cg = make_community_graph(cfg);
  const Partition detected = louvain(cg.graph, {.seed = 3});

  // Use the largest detected community as the rumor community.
  CommunityId biggest = 0;
  for (CommunityId c = 1; c < detected.num_communities(); ++c) {
    if (detected.size_of(c) > detected.size_of(biggest)) biggest = c;
  }
  const std::vector<NodeId>& members = detected.members(biggest);
  const std::vector<NodeId> rumors{members[0], members[1]};

  const ScbgResult r = scbg_from_bridges(
      cg.graph, rumors, find_bridge_ends(cg.graph, detected, biggest, rumors));
  // The cover is verified internally; just confirm it ran end to end.
  EXPECT_EQ(r.covered, r.bridge_ends.size());
}

TEST(Scbg, TiesGoToTheLowestNodeId) {
  // Rumor 0 reaches bridge ends 4..11 over private two-hop paths (feeders
  // 12..19), so each end has rumor distance 2. Node 1 saves {4, 9, 10, 11},
  // node 3 saves {4, 5, 6} and node 2 saves {7, 8}. After node 1, nodes 2
  // and 3 tie at two new ends each; node 3's stale bound (3) tops the lazy
  // heap, but the pick is the exact argmax with the lowest id: node 2.
  std::vector<std::pair<NodeId, NodeId>> arcs;
  for (NodeId e = 4; e < 12; ++e) {
    arcs.emplace_back(0, e + 8);
    arcs.emplace_back(e + 8, e);
  }
  for (NodeId e : {4u, 9u, 10u, 11u}) arcs.emplace_back(1, e);
  for (NodeId e : {4u, 5u, 6u}) arcs.emplace_back(3, e);
  for (NodeId e : {7u, 8u}) arcs.emplace_back(2, e);
  const DiGraph g = make_graph(20, arcs);
  Partition p(std::vector<CommunityId>{0, 0, 0, 0, 1, 1, 1, 1, 1, 1,
                                       1, 1, 0, 0, 0, 0, 0, 0, 0, 0});
  const ScbgResult r =
      scbg_from_bridges(g, kRumor0, find_bridge_ends(g, p, 0, kRumor0));
  EXPECT_EQ(r.bridge_ends, (std::vector<NodeId>{4, 5, 6, 7, 8, 9, 10, 11}));
  EXPECT_EQ(r.protectors, (std::vector<NodeId>{1, 2, 3}));
}

TEST(Scbg, CandidateCountReported) {
  const DiGraph g = make_graph(4, {{0, 1}, {1, 2}, {2, 3}});
  const Partition p(std::vector<CommunityId>{0, 0, 0, 1});
  const ScbgResult r =
      scbg_from_bridges(g, kRumor0, find_bridge_ends(g, p, 0, kRumor0));
  EXPECT_GT(r.candidate_count, 0u);
}

}  // namespace
}  // namespace lcrb
