// CLDAG heuristic tests (He et al., arXiv:1110.4723): exact behavior on
// hand-built LDAG instances, theta's coarsening effect, and the headline
// check — blocking quality close to the Monte-Carlo exact greedy on small
// competitive-LT instances, at zero simulation cost.
#include <gtest/gtest.h>

#include <vector>

#include "diffusion/montecarlo.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "lcrb/bridge.h"
#include "lcrb/cldag.h"
#include "lcrb/greedy.h"
#include "support/own_sigma.h"
#include "util/rng.h"

namespace lcrb {
namespace {

constexpr double kTheta = 1.0 / 320.0;

BridgeEndResult bridges_on(const DiGraph& g, const std::vector<NodeId>& rumors,
                           std::vector<NodeId> ends) {
  BridgeEndResult b;
  b.bridge_ends = std::move(ends);
  b.rumor_dist.assign(g.num_nodes(), kUnreached);
  std::vector<NodeId> frontier, next;
  for (NodeId s : rumors) {
    b.rumor_dist[s] = 0;
    frontier.push_back(s);
  }
  for (std::uint32_t d = 1; !frontier.empty(); ++d) {
    next.clear();
    for (NodeId u : frontier) {
      for (NodeId w : g.out_neighbors(u)) {
        if (b.rumor_dist[w] == kUnreached) {
          b.rumor_dist[w] = d;
          next.push_back(w);
        }
      }
    }
    frontier.swap(next);
  }
  return b;
}

/// Mean fraction of bridge ends saved under competitive LT with `prot`
/// seeded as the protector cascade, over fixed realization seeds.
double lt_quality(const DiGraph& g, const std::vector<NodeId>& rumors,
                  const std::vector<NodeId>& prot,
                  const std::vector<NodeId>& ends) {
  const RealizationParams cfg{.max_hops = 31};
  constexpr std::uint64_t kRuns = 200;
  double total = 0.0;
  for (std::uint64_t s = 0; s < kRuns; ++s) {
    SeedSets seeds;
    seeds.rumors = rumors;
    seeds.protectors = prot;
    total +=
        simulate(g, seeds, s, DiffusionModel::kLt, cfg).saved_fraction(ends);
  }
  return total / static_cast<double>(kRuns);
}

TEST(CldagTest, BlocksTheOnlyPathToTheBridgeEnd) {
  // 0 -> 1 -> 2: the full rumor mass flows through node 1. Blocking 1 (or
  // the root 2 itself) zeroes ap(2); the lowest-id tie rule picks 1.
  const DiGraph g = make_graph(3, {{0, 1}, {1, 2}});
  const CldagResult r =
      cldag_protectors(g, {{0}}, {{2}}, /*budget=*/1, kTheta);
  ASSERT_EQ(r.protectors.size(), 1u);
  EXPECT_EQ(r.protectors[0], 1u);
  ASSERT_EQ(r.score_history.size(), 1u);
  EXPECT_DOUBLE_EQ(r.score_history[0], 1.0);  // ap(1) * alpha(1) = 1
}

TEST(CldagTest, StopsEarlyOnceTheRumorMassIsAbsorbed) {
  // A single chain: one block removes everything; further budget is unused.
  const DiGraph g = make_graph(4, {{0, 1}, {1, 2}, {2, 3}});
  const CldagResult r =
      cldag_protectors(g, {{0}}, {{3}}, /*budget=*/3, kTheta);
  EXPECT_EQ(r.protectors.size(), 1u);
  EXPECT_EQ(r.protectors[0], 1u);
}

TEST(CldagTest, TieBreakingDagificationIsDeterministic) {
  // Two disjoint length-2 paths into the bridge end 5, every interior node
  // at influence 1/2. Equal-influence nodes settle lowest-id-first, so the
  // position order is 5, 1, 0, 3 and the arc 0 -> 3 (position 2 -> 3, the
  // wrong direction) is dropped by the DAG-ification. Only the path through
  // node 1 carries mass: one pick of node 1 absorbs ap(5) = 1/2 and the
  // greedy stops with budget left over — a pin on the tie rule.
  const DiGraph g = make_graph(6, {{0, 1}, {1, 5}, {0, 3}, {3, 5}});
  const CldagResult r =
      cldag_protectors(g, {{0}}, {{5}}, /*budget=*/4, kTheta);
  ASSERT_EQ(r.protectors.size(), 1u);
  EXPECT_EQ(r.protectors[0], 1u);
  EXPECT_DOUBLE_EQ(r.score_history[0], 0.5);
  EXPECT_EQ(r.ldag_arcs, 3u);  // 4 graph arcs, 0 -> 3 dropped
}

TEST(CldagTest, LargerThetaShrinksTheLdags) {
  Rng rng(5);
  const DiGraph g = erdos_renyi(80, 0.06, true, rng);
  std::vector<NodeId> ends;
  for (NodeId v = 30; v < 50; ++v) ends.push_back(v);
  const CldagResult fine =
      cldag_protectors(g, {{0, 1}}, ends, /*budget=*/3, kTheta);
  const CldagResult coarse =
      cldag_protectors(g, {{0, 1}}, ends, /*budget=*/3, 0.5);
  EXPECT_LT(coarse.ldag_nodes, fine.ldag_nodes);
  EXPECT_LE(coarse.ldag_arcs, fine.ldag_arcs);
}

TEST(CldagTest, BlockingQualityTracksTheMonteCarloGreedy) {
  // The headline agreement check: on a small competitive-LT instance the
  // simulation-free CLDAG picks must achieve blocking quality close to the
  // Monte-Carlo LT greedy's (and strictly beat not blocking at all).
  Rng rng(23);
  const DiGraph g = erdos_renyi(50, 0.09, true, rng);
  const std::vector<NodeId> rumors{0, 1};
  std::vector<NodeId> ends;
  for (NodeId v = 10; v < 26; ++v) ends.push_back(v);
  const BridgeEndResult bridges = bridges_on(g, rumors, ends);

  const std::size_t budget = 3;
  const CldagResult cldag =
      cldag_protectors(g, rumors, bridges.bridge_ends, budget, kTheta);
  ASSERT_FALSE(cldag.protectors.empty());

  GreedyConfig cfg;
  cfg.alpha = 1.0;
  cfg.max_protectors = budget;
  cfg.sigma.model = DiffusionModel::kLt;
  cfg.sigma.samples = 30;
  cfg.sigma.seed = 3;
  const GreedyResult greedy =
      testutil::greedy_own(g, rumors, bridges, cfg, nullptr);

  const double q_none = lt_quality(g, rumors, {}, ends);
  const double q_cldag = lt_quality(g, rumors, cldag.protectors, ends);
  const double q_greedy = lt_quality(g, rumors, greedy.protectors, ends);

  EXPECT_GT(q_cldag, q_none) << "CLDAG blocked nothing";
  // Agreement band: the heuristic scores only absorbed rumor mass (no
  // protector spread), so it may trail the exact greedy — but on LDAG-sized
  // instances it must stay within 0.15 saved-fraction of it.
  EXPECT_GE(q_cldag, q_greedy - 0.15)
      << "CLDAG " << q_cldag << " vs greedy " << q_greedy;
}

}  // namespace
}  // namespace lcrb
