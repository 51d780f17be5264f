// Seeded statistical tests for the K-cascade generalization (ctest -L stat):
//
//  * chi-square agreement of K=3 competitive-IC outcome frequencies against
//    brute-force live-edge enumeration on a <=12-node graph — the forward
//    kernel's K-way outcome distribution must match the exact distance-rule
//    semantics pattern by pattern;
//  * empirical checks of the Tong et al. (arXiv:1711.07412) multi-campaign
//    bounds: uncoordinated (blind per-campaign) greedy protectors achieve at
//    least half of the coordinated value, and never beat it.
//
// Every test fixes its seeds, so outcomes are deterministic: a failure is a
// real regression, not statistical bad luck.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "community/partition.h"
#include "diffusion/montecarlo.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "lcrb/bridge.h"
#include "lcrb/greedy.h"
#include "support/statcheck.h"
#include "util/rng.h"

namespace lcrb {
namespace {

// ---------------------------------------------------------------------------
// K=3 competitive IC vs brute-force enumeration.

/// Per-node probabilities of {inactive, protected, infected} under
/// competitive IC with P-priority, by enumerating every live-edge pattern.
/// Role-level outcomes obey the distance rule: a node is infected iff some
/// rumor seed reaches it strictly before every protector seed, protected iff
/// a protector reaches it no later than every rumor (the same semantics
/// statcheck::exact_sigma_ic integrates; role-separable priority makes the
/// K-way split of the rumor side irrelevant at role level).
std::vector<std::array<double, 3>> enumerate_outcome_probs(
    const DiGraph& g, const std::vector<NodeId>& rumors,
    const std::vector<NodeId>& protectors, double edge_prob,
    std::uint32_t max_hops) {
  std::vector<std::pair<NodeId, NodeId>> arcs;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.out_neighbors(u)) arcs.emplace_back(u, v);
  }
  LCRB_REQUIRE(arcs.size() <= 16, "enumeration wants a tiny graph");
  std::vector<std::array<double, 3>> probs(g.num_nodes(), {0.0, 0.0, 0.0});
  for (std::uint64_t live = 0; live < (std::uint64_t{1} << arcs.size());
       ++live) {
    double prob = 1.0;
    for (std::size_t k = 0; k < arcs.size(); ++k) {
      prob *= ((live >> k) & 1) ? edge_prob : 1.0 - edge_prob;
    }
    const auto d_r =
        statcheck::detail::masked_bfs(g, arcs, live, rumors, max_hops);
    const auto d_p =
        statcheck::detail::masked_bfs(g, arcs, live, protectors, max_hops);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      std::size_t outcome = 0;  // inactive
      if (d_p[v] != kUnreached && d_p[v] <= d_r[v]) {
        outcome = 1;  // protected (P wins ties)
      } else if (d_r[v] != kUnreached) {
        outcome = 2;  // infected
      }
      probs[v][outcome] += prob;
    }
  }
  return probs;
}

TEST(KWayStatTest, IcOutcomeFrequenciesMatchEnumerationAtK3) {
  // 10 nodes, 12 arcs: two rumor campaigns {0} and {1} race one protector
  // campaign {2} for three contested hubs and their tails.
  const DiGraph g = make_graph(
      10, {{0, 3}, {1, 3}, {2, 3},          // contested hub 3
           {3, 4}, {4, 9},                  // tail behind the hub
           {0, 5}, {5, 6}, {2, 6},          // rumor-1 path vs protector at 6
           {1, 7}, {7, 8}, {2, 8},          // rumor-2 path vs protector at 8
           {6, 9}});                        // second route into 9
  const std::vector<std::vector<NodeId>> rumor_groups{{0}, {1}};
  const std::vector<std::vector<NodeId>> protector_groups{{2}};
  const double edge_prob = 0.4;

  const SeedSets seeds = make_seed_sets(rumor_groups, protector_groups,
                                        CascadePriority::kFixedOrder);
  ASSERT_EQ(seeds.num_cascades(), 3u);

  const auto probs = enumerate_outcome_probs(
      g, seeds.rumor_role_union(), seeds.protector_role_union(), edge_prob,
      /*max_hops=*/31);

  const RealizationParams cfg{.max_hops = 31, .ic_edge_prob = edge_prob};
  constexpr std::size_t kRuns = 4000;
  std::vector<std::array<std::size_t, 3>> counts(g.num_nodes(), {0, 0, 0});
  for (std::uint64_t s = 0; s < kRuns; ++s) {
    const DiffusionResult res = simulate(g, seeds, s, DiffusionModel::kIc, cfg);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const std::size_t outcome =
          res.state[v] == NodeState::kInactive
              ? 0
              : (res.state[v] == NodeState::kProtected ? 1 : 2);
      counts[v][outcome] += 1;
    }
  }

  // Pooled chi-square over the per-node outcome distributions. Per node,
  // bins with expected count < 5 are merged into that node's largest bin
  // (the usual small-expected-count guard); each node with b >= 2 surviving
  // bins contributes b - 1 degrees of freedom.
  double stat = 0.0;
  double dof = 0.0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    std::array<double, 3> expected;
    for (int s = 0; s < 3; ++s) {
      expected[s] = probs[v][s] * static_cast<double>(kRuns);
    }
    const std::size_t biggest = static_cast<std::size_t>(
        std::max_element(expected.begin(), expected.end()) - expected.begin());
    std::array<double, 3> exp_merged{0.0, 0.0, 0.0};
    std::array<std::size_t, 3> obs_merged{0, 0, 0};
    for (std::size_t s = 0; s < 3; ++s) {
      const std::size_t target = expected[s] < 5.0 ? biggest : s;
      exp_merged[target] += expected[s];
      obs_merged[target] += counts[v][s];
    }
    std::size_t bins = 0;
    for (std::size_t s = 0; s < 3; ++s) {
      if (exp_merged[s] <= 0.0) continue;
      ++bins;
      const double diff =
          static_cast<double>(obs_merged[s]) - exp_merged[s];
      stat += diff * diff / exp_merged[s];
    }
    ASSERT_GE(bins, 1u);
    dof += static_cast<double>(bins - 1);
  }
  ASSERT_GT(dof, 0.0);
  const double p = statcheck::chi_square_pvalue(stat, dof);
  EXPECT_GT(p, 1e-3) << "chi-square stat " << stat << " with " << dof
                     << " dof";
}

TEST(KWayStatTest, SeedRolesAreExactAtK3) {
  // Sanity anchor for the same fixture: the seeds themselves are
  // deterministic (their outcome probability is 1), and the enumeration
  // agrees.
  const DiGraph g = make_graph(10, {{0, 3}, {1, 3}, {2, 3}, {3, 4}});
  const auto probs = enumerate_outcome_probs(g, {0, 1}, {2}, 0.3, 31);
  EXPECT_DOUBLE_EQ(probs[0][2], 1.0);
  EXPECT_DOUBLE_EQ(probs[1][2], 1.0);
  EXPECT_DOUBLE_EQ(probs[2][1], 1.0);
}

// ---------------------------------------------------------------------------
// Tong et al. 1/2 bound: uncoordinated vs coordinated campaigns.

struct MultiCampaignFixture {
  MultiCampaignFixture() {
    Rng rng(97);
    g = erdos_renyi(60, 0.08, true, rng);
    std::vector<CommunityId> membership(60, 1);
    for (NodeId v = 0; v < 10; ++v) membership[v] = 0;
    p = Partition(membership);
    rumors = {0, 1};
    bridges = find_bridge_ends(g, p, 0, rumors);
  }

  GreedyConfig cfg() const {
    GreedyConfig c;
    c.alpha = 1.0;
    c.sigma.samples = 40;
    c.sigma.seed = 11;
    c.sigma.max_hops = 31;
    return c;
  }

  DiGraph g;
  Partition p{std::vector<CommunityId>{0}};
  std::vector<NodeId> rumors;
  BridgeEndResult bridges;
};

TEST(KWayStatTest, UncoordinatedCampaignsAchieveHalfOfCoordinated) {
  // Two protector campaigns with budget 2 each. Uncoordinated campaigns run
  // the same blind greedy and collide on their picks; Tong et al.'s
  // game-theoretic bound says the deployed union still achieves at least
  // half the coordinated (pooled-budget) value. The 0.05 slack absorbs the
  // Monte-Carlo estimation noise of the two achieved fractions.
  MultiCampaignFixture f;
  ASSERT_FALSE(f.bridges.bridge_ends.empty());
  const std::vector<std::size_t> budgets{2, 2};
  const MultiGreedyResult unc = greedy_multi_from_bridges(
      f.g, f.rumors, f.bridges, f.cfg(), budgets,
      MultiCascadeMode::kUncoordinated, nullptr);
  const MultiGreedyResult coord = greedy_multi_from_bridges(
      f.g, f.rumors, f.bridges, f.cfg(), budgets,
      MultiCascadeMode::kCoordinated, nullptr);
  EXPECT_GE(unc.combined.achieved_fraction,
            0.5 * coord.combined.achieved_fraction - 0.05)
      << "uncoordinated " << unc.combined.achieved_fraction
      << " vs coordinated " << coord.combined.achieved_fraction;
}

TEST(KWayStatTest, CoordinationNeverLosesToBlindCampaigns) {
  // The complementary direction: pooling the budgets can only help (up to
  // the same estimation noise), because the coordinated greedy could always
  // replicate the uncoordinated union.
  MultiCampaignFixture f;
  const std::vector<std::size_t> budgets{2, 2};
  const MultiGreedyResult unc = greedy_multi_from_bridges(
      f.g, f.rumors, f.bridges, f.cfg(), budgets,
      MultiCascadeMode::kUncoordinated, nullptr);
  const MultiGreedyResult coord = greedy_multi_from_bridges(
      f.g, f.rumors, f.bridges, f.cfg(), budgets,
      MultiCascadeMode::kCoordinated, nullptr);
  EXPECT_GE(coord.combined.achieved_fraction,
            unc.combined.achieved_fraction - 0.05);
  // Blind campaigns collide: the deployed union never exceeds the pooled
  // deployment, and per-campaign groups respect their budgets.
  EXPECT_LE(unc.deployed.size(), coord.deployed.size());
  ASSERT_EQ(unc.groups.size(), budgets.size());
  ASSERT_EQ(coord.groups.size(), budgets.size());
  for (std::size_t c = 0; c < budgets.size(); ++c) {
    EXPECT_LE(unc.groups[c].size(), budgets[c]);
    EXPECT_LE(coord.groups[c].size(), budgets[c]);
  }
}

}  // namespace
}  // namespace lcrb
