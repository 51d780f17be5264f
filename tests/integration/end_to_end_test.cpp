// Integration tests: the whole stack (generator -> Louvain -> bridge ends ->
// SCBG / greedy -> diffusion evaluation) on dataset-substitute networks.
#include <gtest/gtest.h>

#include <algorithm>

#include "community/louvain.h"
#include "community/nmi.h"
#include "community/partition.h"
#include "diffusion/montecarlo.h"
#include "graph/generators.h"
#include "lcrb/heuristics.h"
#include "lcrb/options.h"
#include "lcrb/pipeline.h"
#include "lcrb/scbg.h"
#include "util/threadpool.h"

namespace lcrb {
namespace {

// No hop cap.
const RealizationParams kUncapped{.max_hops = 0xffffffff};
constexpr DiffusionModel kDoam = DiffusionModel::kDoam;

TEST(EndToEnd, HepSubstituteScbgFullProtection) {
  const DatasetSubstitute ds = make_hep_like(3, 0.08);
  const Partition truth(ds.net.membership);
  const CommunityId rc = ds.planted_medium;

  const ExperimentSetup s =
      prepare_experiment(ds.net.graph, truth, rc,
                         std::max<std::size_t>(1, truth.size_of(rc) / 20), 7);
  ASSERT_FALSE(s.bridges.bridge_ends.empty());

  const ScbgResult r = scbg_from_bridges(ds.net.graph, s.rumors, s.bridges);
  EXPECT_EQ(r.covered, r.bridge_ends.size());
  EXPECT_LT(r.protectors.size(), r.bridge_ends.size() + 1);

  // Under DOAM the guarantee is exact.
  SeedSets seeds{s.rumors, r.protectors};
  const DiffusionResult sim =
      simulate(ds.net.graph, seeds, 0, kDoam, kUncapped);
  for (NodeId b : r.bridge_ends) {
    ASSERT_NE(sim.state[b], NodeState::kInfected);
  }
}

TEST(EndToEnd, EnronSubstituteScbgBeatsHeuristicsOnCost) {
  const DatasetSubstitute ds = make_enron_like(5, 0.04);
  const Partition truth(ds.net.membership);
  const CommunityId rc = ds.planted_medium;  // the big community

  const ExperimentSetup s = prepare_experiment(
      ds.net.graph, truth, rc, std::max<std::size_t>(2, truth.size_of(rc) / 20),
      11);
  if (s.bridges.bridge_ends.empty()) GTEST_SKIP();

  const ScbgResult sc = scbg_from_bridges(ds.net.graph, s.rumors, s.bridges);

  // MaxDegree cover cost on the same instance.
  const auto md_order =
      maxdegree_protectors(ds.net.graph, s.rumors, ds.net.graph.num_nodes());
  const CoverCostResult md =
      cover_cost_doam(ds.net.graph, s.rumors, s.bridges.bridge_ends, md_order);

  // SCBG picks positions that actually cover; MaxDegree needs far more.
  if (md.feasible) {
    EXPECT_LT(sc.protectors.size(), md.cost + 1);
  }
}

TEST(EndToEnd, DetectedCommunitiesCloseToPlanted) {
  const DatasetSubstitute ds = make_hep_like(9, 0.06);
  const Partition truth(ds.net.membership);
  const Partition found = louvain(ds.net.graph, {.seed = 4});
  EXPECT_GT(normalized_mutual_information(found, truth), 0.6);
}

TEST(EndToEnd, GreedyReducesInfectionsOnSubstitute) {
  const DatasetSubstitute ds = make_enron_like(7, 0.02);
  const Partition truth(ds.net.membership);
  const CommunityId rc = ds.planted_small;

  const ExperimentSetup s = prepare_experiment(
      ds.net.graph, truth, rc, std::max<std::size_t>(1, truth.size_of(rc) / 10),
      13);
  if (s.bridges.bridge_ends.empty()) GTEST_SKIP();

  LcrbOptions opts;
  opts.alpha = 0.7;
  opts.sigma_samples = 10;
  opts.budget = s.rumors.size() * 3;
  ThreadPool pool(2);
  const auto greedy = select_protectors(s, opts, &pool);

  MonteCarloConfig mc;
  mc.runs = 30;
  mc.max_hops = 31;
  const HopSeries with = evaluate_protectors(s, greedy, mc, &pool);
  const HopSeries without = evaluate_protectors(s, {}, mc, &pool);
  EXPECT_LT(with.final_infected_mean, without.final_infected_mean);
  EXPECT_GE(with.saved_fraction_mean, without.saved_fraction_mean);
}

}  // namespace
}  // namespace lcrb
