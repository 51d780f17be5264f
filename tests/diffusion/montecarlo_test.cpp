#include "diffusion/montecarlo.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "diffusion/doam.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace lcrb {
namespace {

TEST(MonteCarlo, SeriesShapesMatchConfig) {
  const DiGraph g = path_graph(10);
  MonteCarloConfig cfg;
  cfg.runs = 5;
  cfg.max_hops = 12;
  const HopSeries s = monte_carlo_series(g, {{0}, {}}, cfg);
  EXPECT_EQ(s.infected_mean.size(), 13u);
  EXPECT_EQ(s.protected_mean.size(), 13u);
  EXPECT_EQ(s.runs, 5u);
}

TEST(MonteCarlo, DeterministicPathHasZeroVariance) {
  const DiGraph g = path_graph(8);  // forced walk
  MonteCarloConfig cfg;
  cfg.runs = 10;
  cfg.max_hops = 10;
  const HopSeries s = monte_carlo_series(g, {{0}, {}}, cfg);
  for (double ci : s.infected_ci95) EXPECT_DOUBLE_EQ(ci, 0.0);
  EXPECT_DOUBLE_EQ(s.infected_mean[0], 1.0);
  EXPECT_DOUBLE_EQ(s.infected_mean[7], 8.0);
  EXPECT_DOUBLE_EQ(s.final_infected_mean, 8.0);
}

TEST(MonteCarlo, CumulativeSeriesMonotone) {
  Rng rng(1);
  const DiGraph g = erdos_renyi(200, 0.03, true, rng);
  MonteCarloConfig cfg;
  cfg.runs = 20;
  cfg.max_hops = 20;
  const HopSeries s = monte_carlo_series(g, {{0, 1, 2}, {3, 4}}, cfg);
  for (std::size_t h = 1; h < s.infected_mean.size(); ++h) {
    EXPECT_GE(s.infected_mean[h], s.infected_mean[h - 1]);
    EXPECT_GE(s.protected_mean[h], s.protected_mean[h - 1]);
  }
}

TEST(MonteCarlo, DoamCollapsesToSingleRun) {
  const DiGraph g = path_graph(6);
  MonteCarloConfig cfg;
  cfg.runs = 50;
  cfg.model = DiffusionModel::kDoam;
  const HopSeries s = monte_carlo_series(g, {{0}, {}}, cfg);
  EXPECT_EQ(s.runs, 1u);
  EXPECT_DOUBLE_EQ(s.final_infected_mean, 6.0);
}

TEST(MonteCarlo, DeterministicAcrossThreadCounts) {
  Rng rng(2);
  const DiGraph g = erdos_renyi(150, 0.04, true, rng);
  MonteCarloConfig cfg;
  cfg.runs = 16;
  cfg.seed = 33;
  cfg.max_hops = 15;
  const HopSeries serial = monte_carlo_series(g, {{0}, {1}}, cfg);
  ThreadPool pool(4);
  const HopSeries parallel =
      monte_carlo_series(g, {{0}, {1}}, cfg, {}, &pool);
  // Per-run statistics land in per-run slots and are merged serially in run
  // order, so the aggregates are bit-identical, not merely close.
  for (std::size_t h = 0; h < serial.infected_mean.size(); ++h) {
    EXPECT_EQ(serial.infected_mean[h], parallel.infected_mean[h]);
    EXPECT_EQ(serial.infected_ci95[h], parallel.infected_ci95[h]);
    EXPECT_EQ(serial.protected_mean[h], parallel.protected_mean[h]);
  }
  EXPECT_EQ(serial.final_infected_mean, parallel.final_infected_mean);
  EXPECT_EQ(serial.final_protected_mean, parallel.final_protected_mean);
  EXPECT_EQ(serial.saved_fraction_mean, parallel.saved_fraction_mean);
}

TEST(MonteCarlo, BitIdenticalAcrossPoolSizes) {
  // The Welford merge is order-sensitive in floating point; the fixed-order
  // reduction must erase any dependence on how runs are scheduled.
  Rng rng(9);
  const DiGraph g = erdos_renyi(120, 0.05, true, rng);
  MonteCarloConfig cfg;
  cfg.runs = 24;
  cfg.seed = 77;
  cfg.max_hops = 12;
  cfg.model = DiffusionModel::kIc;
  cfg.ic_edge_prob = 0.25;
  const NodeId targets[] = {60, 61, 62, 63};
  const HopSeries base = monte_carlo_series(g, {{0, 1}, {2}}, cfg, targets);
  for (std::size_t workers : {1u, 2u, 7u}) {
    ThreadPool pool(workers);
    const HopSeries s =
        monte_carlo_series(g, {{0, 1}, {2}}, cfg, targets, &pool);
    for (std::size_t h = 0; h < base.infected_mean.size(); ++h) {
      EXPECT_EQ(base.infected_mean[h], s.infected_mean[h]) << workers;
      EXPECT_EQ(base.infected_ci95[h], s.infected_ci95[h]) << workers;
    }
    EXPECT_EQ(base.saved_fraction_mean, s.saved_fraction_mean) << workers;
  }
}

TEST(MonteCarlo, SavedFractionAgainstTargets) {
  // Protector seed sits between rumor and targets: everything beyond it is
  // saved under OPOAO on a path.
  const DiGraph g = path_graph(10);
  MonteCarloConfig cfg;
  cfg.runs = 3;
  cfg.max_hops = 20;
  const NodeId targets[] = {6, 7, 8, 9};
  const HopSeries s = monte_carlo_series(g, {{0}, {5}}, cfg, targets);
  EXPECT_DOUBLE_EQ(s.saved_fraction_mean, 1.0);

  const NodeId early[] = {1, 2};
  const HopSeries s2 = monte_carlo_series(g, {{0}, {5}}, cfg, early);
  EXPECT_DOUBLE_EQ(s2.saved_fraction_mean, 0.0);
}

TEST(MonteCarlo, ExpectedSavedCountsTargets) {
  const DiGraph g = path_graph(10);
  MonteCarloConfig cfg;
  cfg.runs = 3;
  cfg.max_hops = 20;
  const NodeId targets[] = {6, 7, 8, 9};
  const HopSeries s = monte_carlo_series(g, {{0}, {5}}, cfg, targets);
  EXPECT_DOUBLE_EQ(s.saved_fraction_mean * std::size(targets), 4.0);
}

TEST(MonteCarlo, ZeroRunsRejected) {
  const DiGraph g = path_graph(3);
  MonteCarloConfig cfg;
  cfg.runs = 0;
  EXPECT_THROW(monte_carlo_series(g, {{0}, {}}, cfg), Error);
}

TEST(MonteCarlo, OverBoundSeriesIsRefusedBeforeAllocating) {
  // runs x (max_hops + 1) slot arrays past kMaxHopSeriesBytes throw
  // lcrb::Error instead of allocating; a run count whose product would wrap
  // saturates to "too large" rather than sizing a small array.
  const DiGraph g = path_graph(3);
  MonteCarloConfig cfg;
  cfg.runs = 2;
  cfg.max_hops = 0xffffffff;
  try {
    (void)monte_carlo_series(g, {{0}, {}}, cfg);
    ADD_FAILURE() << "over-bound series was not refused";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("-byte bound"), std::string::npos)
        << e.what();
  }
  cfg.max_hops = 31;
  cfg.runs = std::numeric_limits<std::size_t>::max() / 4;
  EXPECT_THROW((void)monte_carlo_series(g, {{0}, {}}, cfg), Error);
  // Well under the bound still runs.
  cfg.runs = 1000;
  EXPECT_EQ(monte_carlo_series(g, {{0}, {}}, cfg).runs, 1000u);
}

TEST(MonteCarlo, ModelNames) {
  EXPECT_EQ(to_string(DiffusionModel::kOpoao), "OPOAO");
  EXPECT_EQ(to_string(DiffusionModel::kDoam), "DOAM");
  EXPECT_EQ(to_string(DiffusionModel::kIc), "IC");
  EXPECT_EQ(to_string(DiffusionModel::kLt), "LT");
}

TEST(MonteCarlo, IcModelDispatch) {
  Rng rng(5);
  const DiGraph g = erdos_renyi(100, 0.05, true, rng);
  MonteCarloConfig cfg;
  cfg.runs = 10;
  cfg.model = DiffusionModel::kIc;
  cfg.ic_edge_prob = 0.3;
  const HopSeries s = monte_carlo_series(g, {{0, 1}, {}}, cfg);
  EXPECT_GE(s.final_infected_mean, 2.0);  // at least the seeds
}

TEST(MonteCarlo, LtModelDispatch) {
  Rng rng(5);
  const DiGraph g = erdos_renyi(100, 0.05, true, rng);
  MonteCarloConfig cfg;
  cfg.runs = 10;
  cfg.model = DiffusionModel::kLt;
  const HopSeries s = monte_carlo_series(g, {{0, 1}, {}}, cfg);
  EXPECT_GE(s.final_infected_mean, 2.0);
}

}  // namespace
}  // namespace lcrb
