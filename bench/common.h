// Shared infrastructure for the paper-reproduction bench binaries.
//
// Every binary honors:
//   --scale / LCRB_BENCH_SCALE   graph-size multiplier vs the paper's
//                                datasets (default 0.1: minutes, not hours,
//                                on a 2-core box; 1.0 = paper-sized)
//   --runs / LCRB_BENCH_RUNS     Monte-Carlo evaluation runs
//   --samples / LCRB_BENCH_SAMPLES   sigma-estimator samples inside greedy
//   --trials / LCRB_BENCH_TRIALS     outer repetitions (rumor re-draws)
//   --seed
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "build_guard.h"
#include "community/partition.h"
#include "graph/graph.h"
#include "lcrb/pipeline.h"
#include "util/threadpool.h"
#include "util/types.h"

namespace lcrb::bench {

struct BenchContext {
  double scale = 0.1;
  std::size_t mc_runs = 100;
  std::size_t sigma_samples = 20;
  std::size_t trials = 3;
  std::size_t max_candidates = 300;  ///< greedy candidate cap (0 = off)
  std::string csv_dir;               ///< when set, dump figure series CSVs here
  std::uint64_t seed = 1;
  ThreadPool* pool = nullptr;
};

/// Parses flags/env and prints the header line every bench starts with.
/// `default_scale` lets cheap (DOAM) benches default closer to paper size
/// while the Monte-Carlo-greedy (OPOAO) benches stay at 0.1.
BenchContext parse_context(int argc, char** argv, const std::string& title,
                           double default_scale = 0.1);

/// A calibrated dataset-substitute with its planted community structure.
struct Dataset {
  std::string name;        ///< "Hep", "Email" — as in the paper's tables
  DiGraph graph;
  Partition partition;     ///< planted ground truth (Louvain quality is
                           ///< covered by tests and the community ablation)
  CommunityId community;   ///< the paper's rumor community for this figure
  NodeId paper_nodes;      ///< |N| the paper reports
  NodeId paper_community;  ///< |C| the paper reports
  NodeId paper_bridges;    ///< |B| the paper reports
};

Dataset make_hep_dataset(const BenchContext& ctx);          // |C|=308 analog
Dataset make_email_small_dataset(const BenchContext& ctx);  // |C|=80 analog
Dataset make_email_large_dataset(const BenchContext& ctx);  // |C|=2631 analog

/// Prints "dataset: n=..., |C|=..., |B|=... (paper: ...)" for calibration.
void print_dataset_banner(std::ostream& os, const Dataset& ds,
                          const ExperimentSetup& setup);

/// Reproduces one OPOAO figure (Figs. 4-6): infected-vs-hops series for
/// Greedy / Proximity / MaxDegree / NoBlocking with |P| = |R|, one block per
/// rumor fraction (the paper's per-|R| sub-figures).
void run_opoao_figure(std::ostream& os, const Dataset& ds,
                      const BenchContext& ctx,
                      const std::vector<double>& rumor_fractions);

/// One |R| block of an OPOAO figure.
void run_opoao_block(std::ostream& os, const Dataset& ds,
                     const BenchContext& ctx, double rumor_fraction);

/// Reproduces one DOAM figure (Figs. 7-9): infected-vs-hops with all
/// selector sizes pinned to SCBG's cost, for several |R| fractions.
void run_doam_figure(std::ostream& os, const Dataset& ds,
                     const BenchContext& ctx,
                     const std::vector<double>& rumor_fractions);

/// One Table-I block: average protectors needed for full protection.
struct TableOneRow {
  std::string dataset;
  std::string rumor_label;  ///< "1%", "5%", ...
  double scbg = 0.0;
  double proximity = 0.0;
  double maxdegree = 0.0;
};
TableOneRow run_table1_row(const Dataset& ds, const BenchContext& ctx,
                           double rumor_fraction);

}  // namespace lcrb::bench
