// Ablation: sigma-estimator sample count vs greedy solution quality.
//
// Fewer Monte-Carlo samples inside the greedy make selection cheaper but
// noisier. We select with S in {5, 10, 20, 40} samples and score every
// resulting seed set with one high-precision evaluator (200 runs).
#include <iostream>

#include "common.h"

#include "diffusion/montecarlo.h"
#include "lcrb/greedy.h"
#include "lcrb/options.h"
#include "util/table.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace lcrb::bench;
  using namespace lcrb;
  ThreadPool pool;
  BenchContext ctx =
      parse_context(argc, argv, "Ablation — sigma sample count");
  ctx.pool = &pool;
  const Dataset ds = make_hep_dataset(ctx);

  const NodeId csize = ds.partition.size_of(ds.community);
  const ExperimentSetup setup = prepare_experiment(
      ds.graph, ds.partition, ds.community,
      std::max<std::size_t>(1, csize / 20), ctx.seed + 101);
  print_dataset_banner(std::cout, ds, setup);

  MonteCarloConfig precise;
  precise.runs = 200;
  precise.max_hops = 31;
  precise.seed = ctx.seed + 999;

  TextTable table;
  table.set_header(
      {"samples", "|P|", "saved% (precise)", "select time (s)"});
  for (const std::size_t samples : {5u, 10u, 20u, 40u}) {
    LcrbOptions opts;
    opts.alpha = 0.9;
    opts.budget = setup.rumors.size() * 2;
    opts.max_candidates = ctx.max_candidates;
    opts.sigma_samples = samples;
    opts.sigma_seed = ctx.seed + 7;

    Timer t;
    const GreedyResult r = greedy_lcrbp_from_bridges(
        ds.graph, setup.rumors, setup.bridges, opts.greedy_config(), &pool);
    const double sel_time = t.seconds();
    const HopSeries s =
        evaluate_protectors(setup, r.protectors, precise, &pool);
    table.add_values(samples, r.protectors.size(),
                     fixed(100.0 * s.saved_fraction_mean),
                     fixed(sel_time, 2));
  }
  table.print(std::cout);
  std::cout << "\n(saved%% scored by an independent 200-run evaluator)\n";
  return 0;
}
