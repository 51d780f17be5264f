// Model explorer: how the four diffusion models spread the same rumor.
//
// Runs OPOAO, DOAM, competitive IC, and competitive LT from identical seed
// sets on one community-structured network and prints the per-hop cumulative
// infection counts side by side — OPOAO's person-to-person crawl versus
// DOAM's broadcast flood is the contrast the paper builds its two problem
// variants on.
//
// Run:  ./model_explorer [--scale 0.05] [--runs 50] [--hops 16] [--csv out.csv]
#include <iostream>
#include <vector>

#include "community/partition.h"
#include "diffusion/montecarlo.h"
#include "graph/generators.h"
#include "graph/metrics.h"
#include "lcrb/pipeline.h"
#include "lcrb/scbg.h"
#include "util/args.h"
#include "util/csv.h"
#include "util/table.h"
#include "util/threadpool.h"

int main(int argc, char** argv) {
  using namespace lcrb;
  const Args args(argc, argv);
  const double scale = args.get_double("scale", 0.05);
  const auto runs = args.get_count<std::size_t>("runs", 50);
  const auto hops = args.get_count<std::uint32_t>("hops", 16);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 3));

  const DatasetSubstitute ds = make_enron_like(seed, scale);
  const DiGraph& g = ds.net.graph;
  const Partition communities(ds.net.membership);
  std::cout << "Network: " << describe(g) << "\n";

  const ExperimentSetup setup =
      prepare_experiment(g, communities, ds.planted_medium, 5, seed + 1);
  // A handful of protectors from SCBG so both cascades are in play.
  const ScbgResult sc = scbg_from_bridges(g, setup.rumors, setup.bridges);
  std::cout << "|R| = " << setup.rumors.size() << ", |P| = "
            << sc.protectors.size() << " (SCBG seeds)\n\n";

  ThreadPool pool;
  std::vector<HopSeries> series;
  const DiffusionModel models[] = {DiffusionModel::kOpoao,
                                   DiffusionModel::kDoam, DiffusionModel::kIc,
                                   DiffusionModel::kLt};
  for (DiffusionModel m : models) {
    MonteCarloConfig mc;
    mc.runs = runs;
    mc.max_hops = hops;
    mc.model = m;
    mc.ic_edge_prob = 0.15;
    mc.seed = seed + 9;
    SeedSets seeds{setup.rumors, sc.protectors};
    series.push_back(monte_carlo_series(g, seeds, mc,
                                        setup.bridges.bridge_ends, &pool));
  }

  TextTable table;
  table.set_header({"hop", "OPOAO", "DOAM", "IC(p=0.15)", "LT"});
  for (std::uint32_t h = 0; h <= hops; ++h) {
    table.add_values(h, fixed(series[0].infected_mean[h]),
                     fixed(series[1].infected_mean[h]),
                     fixed(series[2].infected_mean[h]),
                     fixed(series[3].infected_mean[h]));
  }
  table.print(std::cout);

  std::cout << "\nBridge ends saved: ";
  for (std::size_t i = 0; i < series.size(); ++i) {
    std::cout << to_string(models[i]) << "="
              << fixed(100.0 * series[i].saved_fraction_mean) << "%  ";
  }
  std::cout << "\n";

  if (args.has("csv")) {
    CsvWriter csv(args.get_string("csv", "model_explorer.csv"));
    csv.write_header({"hop", "opoao", "doam", "ic", "lt"});
    for (std::uint32_t h = 0; h <= hops; ++h) {
      csv.write_values(h, series[0].infected_mean[h],
                       series[1].infected_mean[h], series[2].infected_mean[h],
                       series[3].infected_mean[h]);
    }
    std::cout << "Wrote " << args.get_string("csv", "") << "\n";
  }
  return 0;
}
