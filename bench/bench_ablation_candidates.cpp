// Ablation: candidate-set strategy for the LCRB-P greedy.
//
// kBbstUnion restricts candidates to nodes that can reach some bridge end no
// later than the rumor; kAllNodes is the paper's literal V \ S_R;
// kBridgeEnds is the cheap lower bound (seed the bridge ends themselves).
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
      parse_context(argc, argv, "Ablation — greedy candidate strategies");
  ctx.pool = &pool;
  const Dataset ds = make_hep_dataset(ctx);

  const NodeId csize = ds.partition.size_of(ds.community);
  const ExperimentSetup setup = prepare_experiment(
      ds.graph, ds.partition, ds.community,
      std::max<std::size_t>(1, csize / 10), ctx.seed + 101);
  print_dataset_banner(std::cout, ds, setup);

  MonteCarloConfig precise;
  precise.runs = 200;
  precise.max_hops = 31;
  precise.seed = ctx.seed + 999;

  struct Variant {
    const char* label;
    CandidateStrategy strategy;
    std::size_t cap;
  };
  const Variant variants[] = {
      {"bbst_union", CandidateStrategy::kBbstUnion, 0},
      {"bbst_union+cap", CandidateStrategy::kBbstUnion, ctx.max_candidates},
      {"all_nodes", CandidateStrategy::kAllNodes, 0},
      {"bridge_ends", CandidateStrategy::kBridgeEnds, 0},
  };

  TextTable table;
  table.set_header({"strategy", "candidates", "|P|", "saved% (precise)",
                    "select time (s)"});
  for (const Variant& v : variants) {
    LcrbOptions opts;
    opts.alpha = 0.9;
    opts.candidates = v.strategy;
    opts.max_candidates = v.cap;
    opts.budget = setup.rumors.size() * 2;
    opts.sigma_samples = ctx.sigma_samples;
    opts.sigma_seed = ctx.seed + 7;

    Timer t;
    const GreedyResult r = greedy_lcrbp_from_bridges(
        ds.graph, setup.rumors, setup.bridges, opts.greedy_config(), &pool);
    const double sel_time = t.seconds();
    const HopSeries s =
        evaluate_protectors(setup, r.protectors, precise, &pool);
    table.add_values(v.label, r.candidate_count, r.protectors.size(),
                     fixed(100.0 * s.saved_fraction_mean),
                     fixed(sel_time, 2));
  }
  table.print(std::cout);
  return 0;
}
