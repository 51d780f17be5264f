// Ablation: CELF lazy evaluation vs the paper's plain greedy re-evaluation.
//
// Both must pick (near-)identical seed sets; CELF should need a fraction of
// the sigma evaluations and wall time. This is the design choice DESIGN.md
// §6.3/§6.5 calls out.
#include <iostream>

#include "common.h"

#include "lcrb/greedy.h"
#include "lcrb/options.h"
#include "util/table.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace lcrb::bench;
  using namespace lcrb;
  ThreadPool pool;
  BenchContext ctx =
      parse_context(argc, argv, "Ablation — CELF vs plain greedy");
  ctx.pool = &pool;
  const Dataset ds = make_hep_dataset(ctx);

  const NodeId csize = ds.partition.size_of(ds.community);
  // Enough rumor originators that the greedy runs ~10 rounds — CELF's lazy
  // bounds only pay off past the first pick.
  const ExperimentSetup setup = prepare_experiment(
      ds.graph, ds.partition, ds.community,
      std::max<std::size_t>(5, csize / 5), ctx.seed + 101);
  print_dataset_banner(std::cout, ds, setup);

  TextTable table;
  table.set_header({"variant", "|P|", "achieved", "sigma evals", "time (s)"});
  for (const bool use_celf : {true, false}) {
    LcrbOptions opts;
    opts.alpha = 0.99;
    opts.use_celf = use_celf;
    opts.budget = 10;
    opts.max_candidates = ctx.max_candidates;
    opts.sigma_samples = ctx.sigma_samples;
    opts.sigma_seed = ctx.seed + 7;

    Timer t;
    const GreedyResult r = greedy_lcrbp_from_bridges(
        ds.graph, setup.rumors, setup.bridges, opts.greedy_config(), &pool);
    table.add_values(use_celf ? "CELF" : "plain", r.protectors.size(),
                     fixed(r.achieved_fraction, 3), r.sigma_evaluations,
                     fixed(t.seconds(), 2));
  }
  table.print(std::cout);
  std::cout << "\n(same sigma sample seeds; identical outputs expected up to "
               "ties)\n";
  return 0;
}
