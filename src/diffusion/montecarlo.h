// Monte-Carlo harness: repeated two-cascade simulations with per-hop
// aggregation. This is what produces the paper's Figs. 4-9 series and the
// sigma-estimates inside the LCRB-P greedy.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "diffusion/cascade.h"
#include "diffusion/kernel.h"
#include "util/threadpool.h"

namespace lcrb {

/// Largest footprint monte_carlo_series may allocate for its runs x
/// (max_hops + 1) per-hop slot arrays and per-hop accumulators.
inline constexpr std::size_t kMaxHopSeriesBytes = std::size_t{1} << 30;

struct MonteCarloConfig {
  std::size_t runs = 200;       ///< samples (DOAM is deterministic: 1 enough)
  std::uint64_t seed = 1;       ///< master seed; run i uses an forked stream
  std::uint32_t max_hops = 31;  ///< hop cap = series length (paper: 31)
  DiffusionModel model = DiffusionModel::kOpoao;
  double ic_edge_prob = 0.1;    ///< only for kIc
};

/// One forward simulation of `model`, capped at params.max_hops steps
/// (run_cascade<Traits> for the matching traits). Deterministic in
/// (g, seeds, seed).
template <GraphView G>
DiffusionResult simulate(const G& g, const SeedSets& seeds,
                         std::uint64_t seed, DiffusionModel model,
                         const RealizationParams& params);

/// Per-hop aggregates over `runs` simulations.
struct HopSeries {
  std::vector<double> infected_mean;    ///< cumulative infected at hop h
  std::vector<double> infected_ci95;    ///< 95% CI half-width
  std::vector<double> protected_mean;   ///< cumulative protected at hop h
  double final_infected_mean = 0.0;
  double final_protected_mean = 0.0;
  /// Mean fraction of `targets` (bridge ends) ending uninfected; 1.0 when no
  /// targets were supplied.
  double saved_fraction_mean = 1.0;
  std::size_t runs = 0;
};

/// Runs the Monte-Carlo sweep, optionally on a shared thread pool. Results
/// are deterministic in cfg.seed and bit-identical regardless of threading:
/// per-run statistics are recorded into per-run slots and reduced serially
/// in run order.
template <GraphView G>
HopSeries monte_carlo_series(const G& g, const SeedSets& seeds,
                             const MonteCarloConfig& cfg,
                             std::span<const NodeId> targets = {},
                             ThreadPool* pool = nullptr);

}  // namespace lcrb
