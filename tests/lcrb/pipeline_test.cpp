#include "lcrb/pipeline.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <set>
#include <string>
#include <vector>

#include "graph/ef_graph.h"
#include "graph/generators.h"

namespace lcrb {
namespace {

struct PipelineFixture : public ::testing::Test {
  void SetUp() override {
    CommunityGraphConfig cfg;
    cfg.community_sizes = {60, 60, 60};
    cfg.avg_intra_degree = 6.0;
    cfg.avg_inter_degree = 1.0;
    cfg.seed = 5;
    cg = make_community_graph(cfg);
    p = Partition(cg.membership);
  }
  CommunityGraph cg;
  Partition p;
};

TEST_F(PipelineFixture, PrepareSamplesRumorsInsideCommunity) {
  const ExperimentSetup s = prepare_experiment(cg.graph, p, 0, 5, 17);
  EXPECT_EQ(s.rumors.size(), 5u);
  std::set<NodeId> distinct(s.rumors.begin(), s.rumors.end());
  EXPECT_EQ(distinct.size(), 5u);
  for (NodeId r : s.rumors) EXPECT_EQ(p.community_of(r), 0u);
  EXPECT_EQ(s.rumor_community, 0u);
}

TEST_F(PipelineFixture, PrepareDeterministicInSeed) {
  const ExperimentSetup a = prepare_experiment(cg.graph, p, 0, 4, 9);
  const ExperimentSetup b = prepare_experiment(cg.graph, p, 0, 4, 9);
  EXPECT_EQ(a.rumors, b.rumors);
  EXPECT_EQ(a.bridges.bridge_ends, b.bridges.bridge_ends);
  const ExperimentSetup c = prepare_experiment(cg.graph, p, 0, 4, 10);
  EXPECT_NE(a.rumors, c.rumors);
}

TEST_F(PipelineFixture, PrepareRejectsBadCounts) {
  EXPECT_THROW(prepare_experiment(cg.graph, p, 0, 0, 1), Error);
  EXPECT_THROW(prepare_experiment(cg.graph, p, 0, 100, 1), Error);
  EXPECT_THROW(prepare_experiment(cg.graph, p, 9, 2, 1), Error);
}

TEST_F(PipelineFixture, SelectorsRespectBudgetAndExcludeRumors) {
  const ExperimentSetup s = prepare_experiment(cg.graph, p, 0, 4, 21);
  LcrbOptions opts;
  opts.budget = 6;
  const std::set<NodeId> rumor_set(s.rumors.begin(), s.rumors.end());
  for (SelectorKind kind :
       {SelectorKind::kMaxDegree, SelectorKind::kProximity,
        SelectorKind::kRandom, SelectorKind::kPageRank}) {
    opts.selector = kind;
    const auto picks = select_protectors(s, opts);
    EXPECT_LE(picks.size(), 6u) << to_string(kind);
    for (NodeId v : picks) {
      EXPECT_EQ(rumor_set.count(v), 0u) << to_string(kind);
    }
  }
}

TEST_F(PipelineFixture, GvsSelectorReducesInfections) {
  const ExperimentSetup s = prepare_experiment(cg.graph, p, 0, 4, 31);
  LcrbOptions opts;
  opts.selector = SelectorKind::kGvs;
  opts.budget = 6;
  opts.gvs_samples = 10;
  const auto picks = select_protectors(s, opts);
  EXPECT_EQ(picks.size(), 6u);
  MonteCarloConfig mc;
  mc.runs = 30;
  const HopSeries with = evaluate_protectors(s, picks, mc);
  const HopSeries without = evaluate_protectors(s, {}, mc);
  EXPECT_LT(with.final_infected_mean, without.final_infected_mean);
}

TEST_F(PipelineFixture, NoBlockingIsEmpty) {
  const ExperimentSetup s = prepare_experiment(cg.graph, p, 0, 3, 21);
  LcrbOptions opts;
  opts.selector = SelectorKind::kNoBlocking;
  EXPECT_TRUE(select_protectors(s, opts).empty());
}

TEST_F(PipelineFixture, ScbgSelectorProtectsEverything) {
  const ExperimentSetup s = prepare_experiment(cg.graph, p, 0, 4, 23);
  LcrbOptions opts;
  opts.selector = SelectorKind::kScbg;
  const auto picks = select_protectors(s, opts);
  MonteCarloConfig mc;
  mc.model = DiffusionModel::kDoam;
  mc.max_hops = 40;
  const HopSeries series = evaluate_protectors(s, picks, mc);
  EXPECT_DOUBLE_EQ(series.saved_fraction_mean, 1.0);
}

TEST_F(PipelineFixture, GreedySelectorImprovesOverNoBlocking) {
  const ExperimentSetup s = prepare_experiment(cg.graph, p, 0, 4, 25);
  if (s.bridges.bridge_ends.empty()) GTEST_SKIP();

  LcrbOptions opts;
  opts.alpha = 0.6;
  opts.sigma_samples = 15;
  opts.budget = 20;
  const auto picks = select_protectors(s, opts);

  MonteCarloConfig mc;
  mc.runs = 40;
  mc.max_hops = 31;
  const HopSeries with = evaluate_protectors(s, picks, mc);
  const HopSeries without = evaluate_protectors(s, {}, mc);
  EXPECT_GT(with.saved_fraction_mean, without.saved_fraction_mean);
  EXPECT_LE(with.final_infected_mean, without.final_infected_mean);
}

TEST_F(PipelineFixture, SelectAnswersAlikeWithAndWithoutLentWarmState) {
  // select() serves the Monte-Carlo greedy, both multi-campaign modes and
  // the RIS greedy on either backend. Lending a caller's warm estimator or
  // RIS context must not change any reported figure; only nodes_visited is
  // the call's own. Without lent state select() builds it, and its whole
  // work (the estimator's counter; greedy ops plus both pools' generation
  // under RIS) is pinned per backend and option set.
  LcrbOptions mc;
  mc.alpha = 0.9;
  mc.sigma_samples = 5;
  mc.max_candidates = 40;
  LcrbOptions uncoordinated = mc;
  uncoordinated.multi_mode = MultiCascadeMode::kUncoordinated;
  uncoordinated.protector_budgets = {2, 1};
  LcrbOptions coordinated = uncoordinated;
  coordinated.multi_mode = MultiCascadeMode::kCoordinated;
  LcrbOptions ris = mc;
  ris.sigma_mode = SigmaMode::kRis;
  ris.ris_initial_sets = 64;
  ris.ris_max_sets = 4096;
  const std::vector<LcrbOptions> all{mc, uncoordinated, coordinated, ris};

  const EfGraph ef = EfGraph::from_csr(cg.graph);
  const Partition whole(
      std::vector<CommunityId>(cg.graph.num_nodes(), CommunityId{0}));
  std::vector<std::uint64_t> visited;
  for (const GraphRef g : {GraphRef(cg.graph), GraphRef(ef)}) {
    for (const Partition* part :
         std::initializer_list<const Partition*>{&p, &whole}) {
      const ExperimentSetup s = prepare_experiment(g, *part, 0, 3, 17);
      const bool no_ends = part == &whole;
      ASSERT_EQ(s.bridges.bridge_ends.empty(), no_ends);
      const SigmaEstimator estimator(g, s.rumors, s.bridges.bridge_ends,
                                     mc.sigma_config());
      RisContext ctx(g, s.rumors, s.bridges.bridge_ends, ris.ris_config());
      for (const LcrbOptions& opts : all) {
        const Selection own = select(s, opts);
        const Selection lent =
            select(s, opts, nullptr, WarmSigma{&estimator, &ctx});
        const std::string label =
            std::string(g.csr_or_null() != nullptr ? "csr/" : "ef/") +
            (no_ends ? "no-ends/" : "") + to_string(opts.sigma_mode) + "/" +
            to_string(opts.multi_mode);
        EXPECT_EQ(own.protectors.empty(), no_ends) << label;
        EXPECT_EQ(own.protectors, lent.protectors) << label;
        EXPECT_EQ(own.groups, lent.groups) << label;
        EXPECT_EQ(own.groups.size(), opts.protector_budgets.size()) << label;
        EXPECT_EQ(own.gain_history, lent.gain_history) << label;
        EXPECT_EQ(own.achieved_fraction, lent.achieved_fraction) << label;
        EXPECT_EQ(own.candidate_count, lent.candidate_count) << label;
        EXPECT_EQ(own.sigma_evaluations, lent.sigma_evaluations) << label;
        ASSERT_EQ(own.ris.has_value(), opts.sigma_mode == SigmaMode::kRis)
            << label;
        ASSERT_EQ(lent.ris.has_value(), own.ris.has_value()) << label;
        if (own.ris) {
          EXPECT_EQ(own.ris->rounds, lent.ris->rounds) << label;
          EXPECT_EQ(own.ris->sigma_lower, lent.ris->sigma_lower) << label;
          EXPECT_EQ(own.ris->sigma_upper, lent.ris->sigma_upper) << label;
          EXPECT_EQ(own.ris->guarantee_met, lent.ris->guarantee_met)
              << label;
          EXPECT_EQ(own.ris->stop_reason, lent.ris->stop_reason) << label;
        }
        EXPECT_EQ(select_protectors(s, opts), own.protectors) << label;
        if (no_ends) {
          // Nothing to protect: every variant answers alike, having done
          // no work.
          EXPECT_EQ(own.achieved_fraction, 1.0) << label;
          EXPECT_EQ(own.sigma_evaluations, 0u) << label;
          EXPECT_EQ(own.candidate_count, 0u) << label;
          EXPECT_EQ(own.nodes_visited, 0u) << label;
          if (own.ris) {
            EXPECT_TRUE(own.ris->guarantee_met) << label;
            EXPECT_EQ(own.ris->stop_reason, RisStopReason::kNone) << label;
          }
        } else {
          visited.push_back(own.nodes_visited);
        }
      }
    }
  }
  // mc, uncoordinated, coordinated, ris; CSR then EF.
  EXPECT_EQ(visited, (std::vector<std::uint64_t>{72342, 92601, 72342, 188209,
                                                 72342, 92601, 72342, 188209}));

  // The multi-campaign record carries the groups and their deployed union.
  const ExperimentSetup s = prepare_experiment(cg.graph, p, 0, 3, 17);
  const Selection m = select(s, uncoordinated);
  ASSERT_EQ(m.groups.size(), 2u);
  std::set<NodeId> deployed;
  for (const std::vector<NodeId>& g : m.groups) {
    deployed.insert(g.begin(), g.end());
  }
  EXPECT_EQ(m.protectors,
            std::vector<NodeId>(deployed.begin(), deployed.end()));
}

TEST_F(PipelineFixture, SelectorNames) {
  EXPECT_EQ(to_string(SelectorKind::kGreedy), "Greedy");
  EXPECT_EQ(to_string(SelectorKind::kScbg), "SCBG");
  EXPECT_EQ(to_string(SelectorKind::kMaxDegree), "MaxDegree");
  EXPECT_EQ(to_string(SelectorKind::kProximity), "Proximity");
  EXPECT_EQ(to_string(SelectorKind::kRandom), "Random");
  EXPECT_EQ(to_string(SelectorKind::kPageRank), "PageRank");
  EXPECT_EQ(to_string(SelectorKind::kGvs), "GVS");
  EXPECT_EQ(to_string(SelectorKind::kNoBlocking), "NoBlocking");
}

TEST_F(PipelineFixture, EvaluateReportsHopSeries) {
  const ExperimentSetup s = prepare_experiment(cg.graph, p, 0, 3, 29);
  MonteCarloConfig mc;
  mc.runs = 10;
  mc.max_hops = 12;
  const HopSeries series = evaluate_protectors(s, {}, mc);
  EXPECT_EQ(series.infected_mean.size(), 13u);
  EXPECT_GE(series.final_infected_mean, 3.0);  // at least the seeds
}

}  // namespace
}  // namespace lcrb
