// Extension bench: LCRB beyond the paper's two models.
//
// The paper's conclusion suggests studying LCRB "under other influence
// diffusion models". Our greedy only touches the diffusion model through the
// sigma estimator, so we run the identical pipeline under competitive IC and
// competitive LT and compare all selectors' saved fractions per model.
#include <iostream>

#include "common.h"

#include "diffusion/montecarlo.h"
#include "lcrb/options.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace lcrb::bench;
  using namespace lcrb;
  ThreadPool pool;
  BenchContext ctx = parse_context(
      argc, argv, "Extension — LCRB under competitive IC and LT");
  ctx.pool = &pool;
  const Dataset ds = make_hep_dataset(ctx);

  const NodeId csize = ds.partition.size_of(ds.community);
  const ExperimentSetup setup = prepare_experiment(
      ds.graph, ds.partition, ds.community,
      std::max<std::size_t>(3, csize / 10), ctx.seed + 101);
  print_dataset_banner(std::cout, ds, setup);

  struct ModelCase {
    const char* label;
    DiffusionModel model;
    double ic_p;
  };
  const ModelCase cases[] = {
      {"OPOAO", DiffusionModel::kOpoao, 0.0},
      {"IC p=0.10", DiffusionModel::kIc, 0.10},
      {"IC p=0.25", DiffusionModel::kIc, 0.25},
      {"LT", DiffusionModel::kLt, 0.0},
  };

  TextTable table;
  table.set_header({"model", "Greedy", "Proximity", "MaxDegree", "PageRank",
                    "NoBlocking"});
  for (const ModelCase& mcase : cases) {
    LcrbOptions opts;
    opts.selector_seed = ctx.seed + 5;
    opts.alpha = 0.95;
    opts.max_candidates = ctx.max_candidates;
    opts.sigma_samples = ctx.sigma_samples;
    opts.sigma_seed = ctx.seed + 7;
    opts.model = mcase.model;        // greedy optimizes the model
    opts.ic_edge_prob = mcase.ic_p;  // it will be judged under

    MonteCarloConfig mc;
    mc.runs = ctx.mc_runs;
    mc.max_hops = 31;
    mc.model = mcase.model;
    mc.ic_edge_prob = mcase.ic_p;
    mc.seed = ctx.seed + 13;

    std::vector<std::string> row{mcase.label};
    for (SelectorKind kind :
         {SelectorKind::kGreedy, SelectorKind::kProximity,
          SelectorKind::kMaxDegree, SelectorKind::kPageRank,
          SelectorKind::kNoBlocking}) {
      opts.selector = kind;
      opts.budget =
          kind == SelectorKind::kNoBlocking ? 0 : setup.rumors.size();
      const auto protectors = select_protectors(setup, opts, &pool);
      const HopSeries s = evaluate_protectors(setup, protectors, mc, &pool);
      row.push_back(fixed(100.0 * s.saved_fraction_mean) + "%");
    }
    table.add_row(row);
  }
  table.print(std::cout);
  std::cout << "\n(cells: mean % of bridge ends saved; the greedy re-targets "
               "its sigma\n estimator to each model — no code changes "
               "required)\n";
  return 0;
}
