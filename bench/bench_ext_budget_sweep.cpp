// Extension: protection as a function of the protector budget |P|.
//
// Every selector emits a ranked list; we evaluate each prefix size under
// OPOAO (saved bridge ends, %) with one coupled Monte-Carlo evaluator.
// The greedy's prefix-k IS its budget-k output (greedy is prefix-closed),
// so a single selection run covers the whole sweep.
#include <iostream>

#include "common.h"

#include "diffusion/montecarlo.h"
#include "lcrb/options.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace lcrb::bench;
  using namespace lcrb;
  ThreadPool pool;
  BenchContext ctx =
      parse_context(argc, argv, "Extension — saved%% vs protector budget");
  ctx.pool = &pool;
  const Dataset ds = make_hep_dataset(ctx);

  const NodeId csize = ds.partition.size_of(ds.community);
  const ExperimentSetup setup = prepare_experiment(
      ds.graph, ds.partition, ds.community,
      std::max<std::size_t>(3, csize / 10), ctx.seed + 101);
  print_dataset_banner(std::cout, ds, setup);

  const std::vector<std::size_t> budgets{1, 2, 4, 8, 16};
  const std::size_t max_budget = budgets.back();

  // One ranked list per selector, long enough for the largest budget.
  LcrbOptions opts;
  opts.budget = max_budget;
  opts.selector_seed = ctx.seed + 5;
  opts.alpha = 1.0;  // never stop early; the budget cap rules
  opts.max_candidates = ctx.max_candidates;
  opts.sigma_samples = ctx.sigma_samples;
  opts.sigma_seed = ctx.seed + 7;
  opts.gvs_samples = ctx.sigma_samples;

  const SelectorKind kinds[] = {
      SelectorKind::kGreedy,    SelectorKind::kGvs,
      SelectorKind::kProximity, SelectorKind::kMaxDegree,
      SelectorKind::kPageRank,  SelectorKind::kDegreeDiscount};

  MonteCarloConfig mc;
  mc.runs = ctx.mc_runs;
  mc.max_hops = 31;
  mc.seed = ctx.seed + 13;

  TextTable table;
  table.set_header({"|P|", "Greedy", "GVS", "Proximity", "MaxDegree",
                    "PageRank", "DegreeDiscount"});
  std::vector<std::vector<NodeId>> orders;
  for (SelectorKind kind : kinds) {
    opts.selector = kind;
    orders.push_back(select_protectors(setup, opts, &pool));
  }
  for (std::size_t budget : budgets) {
    std::vector<std::string> row{std::to_string(budget)};
    for (const auto& order : orders) {
      const std::size_t take = std::min(budget, order.size());
      const std::span<const NodeId> prefix(order.data(), take);
      const HopSeries s = evaluate_protectors(setup, prefix, mc, &pool);
      row.push_back(fixed(100.0 * s.saved_fraction_mean) + "%");
    }
    table.add_row(row);
  }
  table.print(std::cout);
  std::cout << "\n(cells: mean % of bridge ends saved under OPOAO, " << mc.runs
            << " runs; each column is prefix sizes of ONE ranked selection)\n";
  return 0;
}
