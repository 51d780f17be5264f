#include "lcrb/greedy.h"

#include <gtest/gtest.h>

#include "diffusion/doam.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "lcrb/bridge.h"
#include "lcrb/scbg.h"
#include "lcrb/sigma.h"

namespace lcrb {
namespace {

// Rumor community {0} -> two independent paths to two bridge ends.
// (Community 0 = {0}; community 1 = everything else.)
struct TwoPathFixture {
  DiGraph g = make_graph(7, {{0, 1}, {1, 2}, {2, 3},   // path A to bridge 1
                             {0, 4}, {4, 5}, {5, 6}}); // path B to bridge 4
  Partition p{std::vector<CommunityId>{0, 1, 1, 1, 1, 1, 1}};
};

GreedyConfig fast_cfg(double alpha = 0.99) {
  GreedyConfig cfg;
  cfg.alpha = alpha;
  cfg.sigma.samples = 20;
  cfg.sigma.seed = 5;
  cfg.sigma.max_hops = 30;
  return cfg;
}

TEST(GreedyLcrbp, ProtectsBothBranches) {
  TwoPathFixture f;
  const GreedyResult r =
      greedy_lcrbp(f.g, f.p, 0, std::vector<NodeId>{0}, fast_cfg());
  // Bridge ends are 1 and 4 (direct out-neighbors of the rumor). The only
  // way to save them is to seed protectors exactly there.
  EXPECT_GE(r.achieved_fraction, 0.99);
  std::vector<NodeId> sorted = r.protectors;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<NodeId>{1, 4}));
}

TEST(GreedyLcrbp, AlphaHalfNeedsOnlyOneProtector) {
  TwoPathFixture f;
  const GreedyResult r =
      greedy_lcrbp(f.g, f.p, 0, std::vector<NodeId>{0}, fast_cfg(0.5));
  EXPECT_EQ(r.protectors.size(), 1u);
  EXPECT_GE(r.achieved_fraction, 0.5);
}

TEST(GreedyLcrbp, MaxProtectorsCapRespected) {
  TwoPathFixture f;
  GreedyConfig cfg = fast_cfg(1.0);
  cfg.max_protectors = 1;
  const GreedyResult r =
      greedy_lcrbp(f.g, f.p, 0, std::vector<NodeId>{0}, cfg);
  EXPECT_EQ(r.protectors.size(), 1u);
}

TEST(GreedyLcrbp, NoBridgeEndsIsTriviallyDone) {
  // Rumor community with no outgoing boundary.
  const DiGraph g = make_graph(3, {{0, 1}});
  const Partition p(std::vector<CommunityId>{0, 0, 1});
  const GreedyResult r = greedy_lcrbp(g, p, 0, std::vector<NodeId>{0},
                                      fast_cfg());
  EXPECT_TRUE(r.protectors.empty());
  EXPECT_DOUBLE_EQ(r.achieved_fraction, 1.0);
}

TEST(GreedyLcrbp, CelfMatchesPlainGreedy) {
  TwoPathFixture f;
  GreedyConfig celf = fast_cfg();
  celf.use_celf = true;
  GreedyConfig plain = fast_cfg();
  plain.use_celf = false;
  const GreedyResult a =
      greedy_lcrbp(f.g, f.p, 0, std::vector<NodeId>{0}, celf);
  const GreedyResult b =
      greedy_lcrbp(f.g, f.p, 0, std::vector<NodeId>{0}, plain);
  std::vector<NodeId> sa = a.protectors, sb = b.protectors;
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());
  EXPECT_EQ(sa, sb);
  // CELF must not use more evaluations than the plain re-evaluation loop.
  EXPECT_LE(a.sigma_evaluations, b.sigma_evaluations);
}

TEST(GreedyLcrbp, GainHistoryNonIncreasingOnDeterministicGraph) {
  TwoPathFixture f;
  const GreedyResult r =
      greedy_lcrbp(f.g, f.p, 0, std::vector<NodeId>{0}, fast_cfg());
  for (std::size_t i = 1; i < r.gain_history.size(); ++i) {
    EXPECT_LE(r.gain_history[i], r.gain_history[i - 1] + 1e-9);
  }
}

TEST(GreedyLcrbp, CandidateStrategies) {
  TwoPathFixture f;
  for (auto strat : {CandidateStrategy::kBbstUnion,
                     CandidateStrategy::kAllNodes,
                     CandidateStrategy::kBridgeEnds}) {
    GreedyConfig cfg = fast_cfg();
    cfg.candidates = strat;
    const GreedyResult r =
        greedy_lcrbp(f.g, f.p, 0, std::vector<NodeId>{0}, cfg);
    EXPECT_GE(r.achieved_fraction, 0.99) << to_string(strat);
    EXPECT_GT(r.candidate_count, 0u);
  }
}

TEST(GreedyLcrbp, BbstUnionSmallerThanAllNodes) {
  TwoPathFixture f;
  GreedyConfig un = fast_cfg();
  un.candidates = CandidateStrategy::kBbstUnion;
  GreedyConfig all = fast_cfg();
  all.candidates = CandidateStrategy::kAllNodes;
  const GreedyResult a =
      greedy_lcrbp(f.g, f.p, 0, std::vector<NodeId>{0}, un);
  const GreedyResult b =
      greedy_lcrbp(f.g, f.p, 0, std::vector<NodeId>{0}, all);
  EXPECT_LT(a.candidate_count, b.candidate_count);
}

TEST(GreedyLcrbp, InvalidAlphaThrows) {
  TwoPathFixture f;
  GreedyConfig cfg = fast_cfg();
  cfg.alpha = 0.0;
  EXPECT_THROW(greedy_lcrbp(f.g, f.p, 0, std::vector<NodeId>{0}, cfg), Error);
  cfg.alpha = 1.5;
  EXPECT_THROW(greedy_lcrbp(f.g, f.p, 0, std::vector<NodeId>{0}, cfg), Error);
}

TEST(GreedyLcrbp, DoamSigmaReachesFullProtectionLikeScbg) {
  // The greedy is model-agnostic: with sigma targeting DOAM (deterministic,
  // one sample suffices) and alpha = 1, it must fully protect the bridge
  // ends, the guarantee SCBG provides by construction.
  CommunityGraphConfig cg_cfg;
  cg_cfg.community_sizes = {50, 50, 50};
  cg_cfg.avg_inter_degree = 1.0;
  cg_cfg.seed = 19;
  const CommunityGraph cg = make_community_graph(cg_cfg);
  const Partition p(cg.membership);
  const std::vector<NodeId> rumors{p.members(0)[0], p.members(0)[1]};

  GreedyConfig cfg;
  cfg.alpha = 1.0;
  cfg.sigma.model = DiffusionModel::kDoam;
  cfg.sigma.samples = 1;
  cfg.max_protectors = 200;
  const GreedyResult r = greedy_lcrbp(cg.graph, p, 0, rumors, cfg);
  EXPECT_DOUBLE_EQ(r.achieved_fraction, 1.0);

  // Sanity against SCBG on the same instance: both fully protect; the
  // set-cover greedy should not be drastically worse than the sigma greedy.
  const ScbgResult sc = scbg(cg.graph, p, 0, rumors);
  SeedSets seeds{rumors, r.protectors};
  const BridgeEndResult b = find_bridge_ends(cg.graph, p, 0, rumors);
  const auto saved = doam_saved(cg.graph, seeds, b.bridge_ends);
  for (bool s : saved) EXPECT_TRUE(s);
  EXPECT_LE(sc.protectors.size(), r.protectors.size() + 5);
}

TEST(GreedyLcrbp, MaxCandidatesCapsPoolButKeepsQuality) {
  TwoPathFixture f;
  GreedyConfig cfg = fast_cfg();
  cfg.max_candidates = 2;
  const GreedyResult r =
      greedy_lcrbp(f.g, f.p, 0, std::vector<NodeId>{0}, cfg);
  EXPECT_LE(r.candidate_count, 2u);
  // Nodes 1 and 4 sit in the most BBSTs... each sits in exactly one; the
  // rank-by-membership truncation must still leave a pool that can make
  // progress (both bridge ends are their own best protectors).
  EXPECT_GT(r.achieved_fraction, 0.0);
}

TEST(GreedyLcrbp, MaxCandidatesZeroMeansUnlimited) {
  TwoPathFixture f;
  GreedyConfig cfg = fast_cfg();
  cfg.max_candidates = 0;
  const GreedyResult a =
      greedy_lcrbp(f.g, f.p, 0, std::vector<NodeId>{0}, cfg);
  cfg.max_candidates = 1000000;
  const GreedyResult b =
      greedy_lcrbp(f.g, f.p, 0, std::vector<NodeId>{0}, cfg);
  EXPECT_EQ(a.candidate_count, b.candidate_count);
}

TEST(GreedyLcrbp, SigmaEvaluationsAgreeForSharedAndPrivateEstimators) {
  // sigma_evaluations counts single-sample evaluations: a caller-owned
  // (shared) estimator must report exactly what a private one counts, for
  // the single-campaign greedy and both multi-campaign modes.
  CommunityGraphConfig cg_cfg;
  cg_cfg.community_sizes = {40, 40, 40};
  cg_cfg.avg_inter_degree = 1.2;
  cg_cfg.seed = 23;
  const CommunityGraph cg = make_community_graph(cg_cfg);
  const Partition p(cg.membership);
  const std::vector<NodeId> rumors{p.members(0)[0], p.members(0)[1]};
  const BridgeEndResult bridges = find_bridge_ends(cg.graph, p, 0, rumors);
  ASSERT_FALSE(bridges.bridge_ends.empty());
  GreedyConfig cfg = fast_cfg(0.9);
  cfg.sigma.samples = 5;
  cfg.use_celf = true;
  const std::size_t budgets[] = {2, 1};

  {
    const SigmaEstimator est(cg.graph, rumors, bridges.bridge_ends, cfg.sigma);
    const GreedyResult shared =
        greedy_lcrbp_with_estimator(cg.graph, rumors, bridges, cfg, est);
    EXPECT_EQ(shared.sigma_evaluations, est.evaluations());
    const GreedyResult priv =
        greedy_lcrbp_from_bridges(cg.graph, rumors, bridges, cfg);
    EXPECT_EQ(priv.sigma_evaluations, shared.sigma_evaluations);
  }
  for (MultiCascadeMode mode :
       {MultiCascadeMode::kCoordinated, MultiCascadeMode::kUncoordinated}) {
    const SigmaEstimator est(cg.graph, rumors, bridges.bridge_ends, cfg.sigma);
    const MultiGreedyResult shared = greedy_multi_with_estimator(
        cg.graph, rumors, bridges, cfg, budgets, mode, est);
    EXPECT_EQ(shared.combined.sigma_evaluations, est.evaluations())
        << to_string(mode);
    const MultiGreedyResult priv = greedy_multi_from_bridges(
        cg.graph, rumors, bridges, cfg, budgets, mode);
    EXPECT_EQ(priv.combined.sigma_evaluations,
              shared.combined.sigma_evaluations)
        << to_string(mode);
  }
}

TEST(GreedyLcrbp, StrategyNames) {
  EXPECT_EQ(to_string(CandidateStrategy::kBbstUnion), "bbst_union");
  EXPECT_EQ(to_string(CandidateStrategy::kAllNodes), "all_nodes");
  EXPECT_EQ(to_string(CandidateStrategy::kBridgeEnds), "bridge_ends");
}

}  // namespace
}  // namespace lcrb
