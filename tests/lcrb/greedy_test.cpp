#include "lcrb/greedy.h"

#include <gtest/gtest.h>

#include <queue>

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
  std::vector<NodeId> rumors{0};
  BridgeEndResult bridges = find_bridge_ends(g, p, 0, rumors);
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
      greedy_lcrbp_from_bridges(f.g, f.rumors, f.bridges, fast_cfg());
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
      greedy_lcrbp_from_bridges(f.g, f.rumors, f.bridges, fast_cfg(0.5));
  EXPECT_EQ(r.protectors.size(), 1u);
  EXPECT_GE(r.achieved_fraction, 0.5);
}

TEST(GreedyLcrbp, MaxProtectorsCapRespected) {
  TwoPathFixture f;
  GreedyConfig cfg = fast_cfg(1.0);
  cfg.max_protectors = 1;
  const GreedyResult r =
      greedy_lcrbp_from_bridges(f.g, f.rumors, f.bridges, cfg);
  EXPECT_EQ(r.protectors.size(), 1u);
}

TEST(GreedyLcrbp, NoBridgeEndsIsTriviallyDone) {
  // Rumor community with no outgoing boundary.
  const DiGraph g = make_graph(3, {{0, 1}});
  const Partition p(std::vector<CommunityId>{0, 0, 1});
  const std::vector<NodeId> rumors{0};
  const GreedyResult r = greedy_lcrbp_from_bridges(
      g, rumors, find_bridge_ends(g, p, 0, rumors), fast_cfg());
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
      greedy_lcrbp_from_bridges(f.g, f.rumors, f.bridges, celf);
  const GreedyResult b =
      greedy_lcrbp_from_bridges(f.g, f.rumors, f.bridges, plain);
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
      greedy_lcrbp_from_bridges(f.g, f.rumors, f.bridges, fast_cfg());
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
        greedy_lcrbp_from_bridges(f.g, f.rumors, f.bridges, cfg);
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
      greedy_lcrbp_from_bridges(f.g, f.rumors, f.bridges, un);
  const GreedyResult b =
      greedy_lcrbp_from_bridges(f.g, f.rumors, f.bridges, all);
  EXPECT_LT(a.candidate_count, b.candidate_count);
}

TEST(GreedyLcrbp, InvalidAlphaThrows) {
  TwoPathFixture f;
  GreedyConfig cfg = fast_cfg();
  cfg.alpha = 0.0;
  EXPECT_THROW(greedy_lcrbp_from_bridges(f.g, f.rumors, f.bridges, cfg), Error);
  cfg.alpha = 1.5;
  EXPECT_THROW(greedy_lcrbp_from_bridges(f.g, f.rumors, f.bridges, cfg), Error);
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
  const BridgeEndResult b = find_bridge_ends(cg.graph, p, 0, rumors);
  const GreedyResult r = greedy_lcrbp_from_bridges(cg.graph, rumors, b, cfg);
  EXPECT_DOUBLE_EQ(r.achieved_fraction, 1.0);

  // Sanity against SCBG on the same instance: both fully protect; the
  // set-cover greedy should not be drastically worse than the sigma greedy.
  const ScbgResult sc = scbg_from_bridges(cg.graph, rumors, b);
  SeedSets seeds{rumors, r.protectors};
  const auto saved = doam_saved(cg.graph, seeds, b.bridge_ends);
  for (bool s : saved) EXPECT_TRUE(s);
  EXPECT_LE(sc.protectors.size(), r.protectors.size() + 5);
}

TEST(GreedyLcrbp, MaxCandidatesCapsPoolButKeepsQuality) {
  TwoPathFixture f;
  GreedyConfig cfg = fast_cfg();
  cfg.max_candidates = 2;
  const GreedyResult r =
      greedy_lcrbp_from_bridges(f.g, f.rumors, f.bridges, cfg);
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
      greedy_lcrbp_from_bridges(f.g, f.rumors, f.bridges, cfg);
  cfg.max_candidates = 1000000;
  const GreedyResult b =
      greedy_lcrbp_from_bridges(f.g, f.rumors, f.bridges, cfg);
  EXPECT_EQ(a.candidate_count, b.candidate_count);
}

TEST(GreedyLcrbp, SigmaEvaluationsAgreeForSharedAndPrivateEstimators) {
  // sigma_evaluations counts the sigma-oracle calls the greedy consumes, in
  // single-sample evaluations: a caller-owned (shared) estimator must report
  // exactly what a private one counts, for the single-campaign greedy and
  // both multi-campaign modes. The counts are pinned to those of the
  // one-set-per-call greedy; the estimator's own evaluations() also counts
  // speculative batch lanes, so it is not compared.
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
    EXPECT_EQ(shared.sigma_evaluations, 1560u);
    EXPECT_GT(est.evaluations(), 0u);
    const GreedyResult priv =
        greedy_lcrbp_from_bridges(cg.graph, rumors, bridges, cfg);
    EXPECT_EQ(priv.sigma_evaluations, shared.sigma_evaluations);
  }
  for (MultiCascadeMode mode :
       {MultiCascadeMode::kCoordinated, MultiCascadeMode::kUncoordinated}) {
    const SigmaEstimator est(cg.graph, rumors, bridges.bridge_ends, cfg.sigma);
    const MultiGreedyResult shared = greedy_multi_with_estimator(
        cg.graph, rumors, bridges, cfg, budgets, mode, est);
    EXPECT_EQ(shared.combined.sigma_evaluations,
              mode == MultiCascadeMode::kCoordinated ? 1560u : 1775u)
        << to_string(mode);
    const MultiGreedyResult priv = greedy_multi_from_bridges(
        cg.graph, rumors, bridges, cfg, budgets, mode);
    EXPECT_EQ(priv.combined.sigma_evaluations,
              shared.combined.sigma_evaluations)
        << to_string(mode);
  }
}

/// Reference CELF with one oracle call per question: one sigma() per
/// re-evaluation and one protected_fraction() per pick, over every
/// non-rumor node (CandidateStrategy::kAllNodes) in ascending order.
GreedyResult one_at_a_time_celf(NodeId n, const std::vector<NodeId>& rumors,
                                const SigmaEstimator& est, double alpha) {
  struct Entry {
    double gain;
    NodeId node;
    std::size_t round;
    bool operator<(const Entry& o) const { return gain < o.gain; }
  };
  GreedyResult out;
  std::size_t calls = 0;
  std::vector<NodeId> current;
  double current_sigma = 0.0;
  double fraction = est.protected_fraction(current);
  ++calls;
  auto gain_of = [&](NodeId v) {
    std::vector<NodeId> with = current;
    with.push_back(v);
    ++calls;
    return est.sigma(with) - current_sigma;
  };
  std::priority_queue<Entry> heap;
  for (NodeId v = 0; v < n; ++v) {
    if (std::find(rumors.begin(), rumors.end(), v) != rumors.end()) continue;
    heap.push({gain_of(v), v, 0});
  }
  while (fraction < alpha && !heap.empty()) {
    Entry top = heap.top();
    heap.pop();
    if (top.round != current.size()) {
      top.gain = gain_of(top.node);
      top.round = current.size();
      if (!heap.empty() && top.gain < heap.top().gain) {
        heap.push(top);
        continue;
      }
    }
    current.push_back(top.node);
    current_sigma += top.gain;
    out.gain_history.push_back(top.gain);
    fraction = est.protected_fraction(current);
    ++calls;
    if (top.gain <= 0.0 && fraction < alpha) break;
  }
  out.protectors = current;
  out.achieved_fraction = fraction;
  out.sigma_evaluations = calls * est.samples();
  return out;
}

TEST(GreedyLcrbp, BatchedCelfMatchesOneAtATimeCelf) {
  // Batched lazy re-evaluation (speculative lanes, cached fresh gains,
  // fractions read off the picking score) makes exactly the decisions of
  // the one-set-per-call CELF loop: same picks, gains bit for bit, same
  // fraction and oracle-call count. OPOAO runs the lane kernel, IC the
  // lane-by-lane fallback.
  for (DiffusionModel m : {DiffusionModel::kOpoao, DiffusionModel::kIc}) {
    for (std::uint64_t seed : {31, 32, 33}) {
      CommunityGraphConfig cg_cfg;
      cg_cfg.community_sizes = {40, 40, 40};
      cg_cfg.avg_inter_degree = 1.2;
      cg_cfg.seed = seed;
      const CommunityGraph cg = make_community_graph(cg_cfg);
      const Partition p(cg.membership);
      const std::vector<NodeId> rumors{p.members(0)[0], p.members(0)[1]};
      const BridgeEndResult bridges = find_bridge_ends(cg.graph, p, 0, rumors);
      ASSERT_FALSE(bridges.bridge_ends.empty());
      GreedyConfig cfg = fast_cfg(0.95);
      cfg.candidates = CandidateStrategy::kAllNodes;
      cfg.sigma.samples = 8;
      cfg.sigma.seed = seed;
      cfg.sigma.model = m;
      cfg.sigma.ic_edge_prob = 0.3;
      const SigmaEstimator est(cg.graph, rumors, bridges.bridge_ends,
                               cfg.sigma);
      const GreedyResult batched =
          greedy_lcrbp_with_estimator(cg.graph, rumors, bridges, cfg, est);
      const GreedyResult ref =
          one_at_a_time_celf(cg.graph.num_nodes(), rumors, est, cfg.alpha);
      EXPECT_FALSE(ref.protectors.empty());
      EXPECT_EQ(batched.protectors, ref.protectors) << to_string(m) << seed;
      EXPECT_EQ(batched.gain_history, ref.gain_history) << to_string(m) << seed;
      EXPECT_EQ(batched.achieved_fraction, ref.achieved_fraction)
          << to_string(m) << seed;
      EXPECT_EQ(batched.sigma_evaluations, ref.sigma_evaluations)
          << to_string(m) << seed;
    }
  }
}

TEST(GreedyLcrbp, StrategyNames) {
  EXPECT_EQ(to_string(CandidateStrategy::kBbstUnion), "bbst_union");
  EXPECT_EQ(to_string(CandidateStrategy::kAllNodes), "all_nodes");
  EXPECT_EQ(to_string(CandidateStrategy::kBridgeEnds), "bridge_ends");
}

}  // namespace
}  // namespace lcrb
