// Cross-model property sweep: invariants every diffusion model must satisfy,
// run over all models via TEST_P.
#include <gtest/gtest.h>

#include "diffusion/montecarlo.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace lcrb {
namespace {

class ModelPropertyTest
    : public ::testing::TestWithParam<std::tuple<DiffusionModel, std::uint64_t>> {
 protected:
  DiffusionModel model() const { return std::get<0>(GetParam()); }
  static RealizationParams params() {
    return {.max_hops = 25, .ic_edge_prob = 0.25};
  }
  MonteCarloConfig config() const {
    MonteCarloConfig cfg;
    cfg.model = model();
    cfg.runs = 15;
    cfg.max_hops = params().max_hops;
    cfg.ic_edge_prob = params().ic_edge_prob;
    cfg.seed = std::get<1>(GetParam());
    return cfg;
  }
};

TEST_P(ModelPropertyTest, SeedsAlwaysKeepTheirColor) {
  Rng rng(std::get<1>(GetParam()));
  const DiGraph g = erdos_renyi(120, 0.05, true, rng);
  const SeedSets seeds{{0, 1, 2}, {3, 4}};
  const DiffusionResult r = simulate(g, seeds, 99, model(), params());
  for (NodeId v : seeds.rumors) {
    EXPECT_EQ(r.state[v], NodeState::kInfected);
    EXPECT_EQ(r.activation_step[v], 0u);
  }
  for (NodeId v : seeds.protectors) {
    EXPECT_EQ(r.state[v], NodeState::kProtected);
    EXPECT_EQ(r.activation_step[v], 0u);
  }
}

TEST_P(ModelPropertyTest, ResultPassesStructuralValidation) {
  // DiffusionResult::validate re-derives the shared state-machine rules
  // (seed steps, series counts, same-colored-predecessor propagation) from
  // scratch; every model's output must satisfy them on every run.
  Rng rng(std::get<1>(GetParam()) + 5);
  const DiGraph g = erdos_renyi(120, 0.05, true, rng);
  const SeedSets seeds{{0, 1, 2}, {3, 4}};
  for (std::uint64_t run = 0; run < 5; ++run) {
    const DiffusionResult r = simulate(g, seeds, run, model(), params());
    EXPECT_NO_THROW(r.validate(g, seeds)) << "run " << run;
  }
}

TEST_P(ModelPropertyTest, ActivationTimesRespectHopCap) {
  Rng rng(std::get<1>(GetParam()) + 1);
  const DiGraph g = erdos_renyi(120, 0.05, true, rng);
  const SeedSets seeds{{0, 1}, {2}};
  RealizationParams capped = params();
  capped.max_hops = 5;
  const DiffusionResult r = simulate(g, seeds, 7, model(), capped);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (r.state[v] != NodeState::kInactive) {
      EXPECT_LE(r.activation_step[v], 5u);
    }
  }
}

TEST_P(ModelPropertyTest, NewlySeriesSumToFinalCounts) {
  Rng rng(std::get<1>(GetParam()) + 2);
  const DiGraph g = erdos_renyi(150, 0.04, true, rng);
  const SeedSets seeds{{0, 1, 2, 3}, {4, 5}};
  const DiffusionResult r = simulate(g, seeds, 11, model(), params());
  std::size_t inf = 0, prot = 0;
  for (auto c : r.newly_infected) inf += c;
  for (auto c : r.newly_protected) prot += c;
  EXPECT_EQ(inf, r.infected_count());
  EXPECT_EQ(prot, r.protected_count());
}

TEST_P(ModelPropertyTest, MonteCarloSavedFractionBounded) {
  Rng rng(std::get<1>(GetParam()) + 3);
  const DiGraph g = erdos_renyi(100, 0.05, true, rng);
  const SeedSets seeds{{0, 1}, {2, 3}};
  std::vector<NodeId> targets;
  for (NodeId v = 40; v < 60; ++v) targets.push_back(v);
  const HopSeries s = monte_carlo_series(g, seeds, config(), targets);
  EXPECT_GE(s.saved_fraction_mean, 0.0);
  EXPECT_LE(s.saved_fraction_mean, 1.0);
  EXPECT_GE(s.final_infected_mean, static_cast<double>(seeds.rumors.size()));
  EXPECT_GE(s.final_protected_mean,
            static_cast<double>(seeds.protectors.size()));
}

TEST_P(ModelPropertyTest, MoreProtectorSeedsNeverHurtOnAverage) {
  // Holds per-sample for OPOAO (fixed pick tables), DOAM (distance rule),
  // and IC (live-edge coupling). It does NOT hold for competitive LT: an
  // extra protector's weight can push a node over its threshold where the
  // rumor weight then dominates, so LT is excluded (that asymmetry is the
  // "models without submodularity" direction the paper's conclusion names).
  if (std::get<0>(GetParam()) == DiffusionModel::kLt) GTEST_SKIP();
  Rng rng(std::get<1>(GetParam()) + 4);
  const DiGraph g = erdos_renyi(150, 0.05, true, rng);
  MonteCarloConfig cfg = config();
  cfg.runs = 40;
  const HopSeries small = monte_carlo_series(g, {{0, 1}, {2}}, cfg);
  const HopSeries large = monte_carlo_series(g, {{0, 1}, {2, 3, 4, 5}}, cfg);
  EXPECT_LE(large.final_infected_mean, small.final_infected_mean + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ModelPropertyTest,
    ::testing::Combine(::testing::Values(DiffusionModel::kOpoao,
                                         DiffusionModel::kDoam,
                                         DiffusionModel::kIc,
                                         DiffusionModel::kLt,
                                         DiffusionModel::kWc),
                       ::testing::Values(1, 2, 3)),
    [](const auto& param_info) {
      return to_string(std::get<0>(param_info.param)) + "_seed" +
             std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace lcrb
