#include "diffusion/montecarlo.h"

#include "graph/ef_graph.h"
#include "graph/graph.h"

#include "diffusion/kernel.h"
#include "diffusion/model_traits.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/stats.h"

namespace lcrb {

// Flatten the kernel instantiation into the wrapper: leaving it as a comdat
// call costs ~10% on the small-cascade microbenchmarks.
template <GraphView G>
#if defined(__GNUC__)
__attribute__((flatten))
#endif
DiffusionResult simulate(const G& g, const SeedSets& seeds,
                         std::uint64_t seed, DiffusionModel model,
                         const RealizationParams& params) {
  return dispatch_model(model, [&](auto t) {
    return run_cascade<decltype(t)>(g, seeds, seed, params);
  });
}

template <GraphView G>
HopSeries monte_carlo_series(const G& g, const SeedSets& seeds,
                             const MonteCarloConfig& cfg,
                             std::span<const NodeId> targets,
                             ThreadPool* pool) {
  LCRB_REQUIRE(cfg.runs >= 1, "need at least one Monte-Carlo run");
  validate_seeds(g, seeds);

  // A deterministic model (DOAM): extra runs would just repeat the same
  // trajectory.
  const bool deterministic =
      dispatch_model(cfg.model, [](auto t) { return decltype(t)::kDeterministic; });
  const std::size_t runs = deterministic ? 1 : cfg.runs;

  const std::size_t hops = static_cast<std::size_t>(cfg.max_hops) + 1;
  // The slot arrays below (two per-hop doubles and three finals per run)
  // plus the per-hop accumulators, checked before anything is allocated.
  const std::size_t bytes = sat_add(
      sat_mul(runs, sat_add(sat_mul(hops, 2 * sizeof(double)),
                            3 * sizeof(double))),
      sat_mul(hops, 2 * sizeof(RunningStats) + 3 * sizeof(double)));
  if (bytes > kMaxHopSeriesBytes) {
    throw Error("monte_carlo_series: " + std::to_string(runs) + " runs x " +
                std::to_string(hops) + " hops need " + std::to_string(bytes) +
                " bytes, over the " + std::to_string(kMaxHopSeriesBytes) +
                "-byte bound; lower the run count or max_hops");
  }

  // Each run writes its raw per-hop counts into a preassigned slot of these
  // flat runs-by-hops arrays; the RunningStats accumulation happens serially
  // afterwards, in run order. Welford updates are order-dependent in floating
  // point, so feeding them in a fixed order (instead of mutex-guarded arrival
  // order) is what makes the series bit-identical across thread counts.
  std::vector<double> inf_c(runs * hops), prot_c(runs * hops);
  std::vector<double> fi(runs), fp(runs), sf(runs);

  const RealizationParams params{cfg.max_hops, cfg.ic_edge_prob};
  Rng master(cfg.seed);
  auto run_one = [&](std::size_t i) {
    const std::uint64_t run_seed = master.fork(i).next();
    const DiffusionResult r = simulate(g, seeds, run_seed, cfg.model, params);
    for (std::size_t h = 0; h < hops; ++h) {
      inf_c[i * hops + h] =
          static_cast<double>(r.cumulative_infected_at(static_cast<std::uint32_t>(h)));
      prot_c[i * hops + h] =
          static_cast<double>(r.cumulative_protected_at(static_cast<std::uint32_t>(h)));
    }
    fi[i] = static_cast<double>(r.infected_count());
    fp[i] = static_cast<double>(r.protected_count());
    sf[i] = r.saved_fraction(targets);
  };

  if (pool != nullptr && runs > 1) {
    pool->parallel_for(runs, run_one);
  } else {
    for (std::size_t i = 0; i < runs; ++i) run_one(i);
  }

  std::vector<RunningStats> infected(hops), prot(hops);
  RunningStats final_inf, final_prot, saved;
  for (std::size_t i = 0; i < runs; ++i) {
    for (std::size_t h = 0; h < hops; ++h) {
      infected[h].add(inf_c[i * hops + h]);
      prot[h].add(prot_c[i * hops + h]);
    }
    final_inf.add(fi[i]);
    final_prot.add(fp[i]);
    saved.add(sf[i]);
  }

  HopSeries out;
  out.runs = runs;
  out.infected_mean.resize(hops);
  out.infected_ci95.resize(hops);
  out.protected_mean.resize(hops);
  for (std::size_t h = 0; h < hops; ++h) {
    out.infected_mean[h] = infected[h].mean();
    out.infected_ci95[h] = infected[h].ci95_halfwidth();
    out.protected_mean[h] = prot[h].mean();
  }
  out.final_infected_mean = final_inf.mean();
  out.final_protected_mean = final_prot.mean();
  out.saved_fraction_mean = saved.mean();
  return out;
}

#define LCRB_INSTANTIATE_MONTECARLO(G)                                        \
  template DiffusionResult simulate<G>(const G&, const SeedSets&,             \
                                       std::uint64_t, DiffusionModel,         \
                                       const RealizationParams&);             \
  template HopSeries monte_carlo_series<G>(const G&, const SeedSets&,         \
                                           const MonteCarloConfig&,           \
                                           std::span<const NodeId>,           \
                                           ThreadPool*);

LCRB_INSTANTIATE_MONTECARLO(DiGraph)
LCRB_INSTANTIATE_MONTECARLO(EfGraph)

#undef LCRB_INSTANTIATE_MONTECARLO

}  // namespace lcrb
