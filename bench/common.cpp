#include "common.h"

#include <algorithm>
#include <iostream>

#include "diffusion/montecarlo.h"
#include "graph/generators.h"
#include "lcrb/heuristics.h"
#include "lcrb/options.h"
#include "lcrb/scbg.h"
#include "util/args.h"
#include "util/csv.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

namespace lcrb::bench {

namespace {

/// Heuristic sets for the DOAM figures: the paper computes each heuristic's
/// covering solution first, then samples the SCBG-sized subset from it.
std::vector<NodeId> sized_heuristic_set(const DiGraph& g,
                                        const ExperimentSetup& setup,
                                        SelectorKind kind, std::size_t size,
                                        Rng& rng) {
  std::vector<NodeId> pool;
  if (kind == SelectorKind::kMaxDegree) {
    const auto order =
        maxdegree_protectors(g, setup.rumors, g.num_nodes());
    const CoverCostResult cc =
        cover_cost_doam(g, setup.rumors, setup.bridges.bridge_ends, order);
    pool = cc.protectors;
  } else if (kind == SelectorKind::kProximity) {
    Rng order_rng(rng.next());
    const auto order =
        proximity_protectors(g, setup.rumors, g.num_nodes(), order_rng);
    const CoverCostResult cc =
        cover_cost_doam(g, setup.rumors, setup.bridges.bridge_ends, order);
    pool = cc.protectors;
  }
  if (pool.size() <= size) return pool;
  for (std::size_t i = 0; i < size; ++i) {
    const std::size_t j = i + rng.next_below(pool.size() - i);
    std::swap(pool[i], pool[j]);
  }
  pool.resize(size);
  return pool;
}

}  // namespace

BenchContext parse_context(int argc, char** argv, const std::string& title,
                           double default_scale) {
  const Args args(argc, argv);
  BenchContext ctx;
  ctx.scale = args.get_double_env("scale", "LCRB_BENCH_SCALE", default_scale);
  ctx.mc_runs = static_cast<std::size_t>(
      args.get_int_env("runs", "LCRB_BENCH_RUNS", 100));
  ctx.sigma_samples = static_cast<std::size_t>(
      args.get_int_env("samples", "LCRB_BENCH_SAMPLES", 20));
  ctx.trials = static_cast<std::size_t>(
      args.get_int_env("trials", "LCRB_BENCH_TRIALS", 3));
  ctx.max_candidates = static_cast<std::size_t>(
      args.get_int_env("candidates", "LCRB_BENCH_CANDIDATES", 300));
  ctx.csv_dir = args.get_string("csv-dir", "");
  ctx.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  require_release_build(title.c_str());
  set_log_level(LogLevel::Warn);
  std::cout << "=== " << title << " ===\n"
            << "build=" << kBuildType << " scale=" << ctx.scale
            << " mc_runs=" << ctx.mc_runs
            << " sigma_samples=" << ctx.sigma_samples
            << " trials=" << ctx.trials << " seed=" << ctx.seed << "\n\n";
  return ctx;
}

Dataset make_hep_dataset(const BenchContext& ctx) {
  const DatasetSubstitute ds = make_hep_like(ctx.seed, ctx.scale);
  Dataset out;
  out.name = "Hep";
  out.graph = std::move(ds.net.graph);
  out.partition = Partition(ds.net.membership);
  out.community = ds.planted_medium;
  out.paper_nodes = 15233;
  out.paper_community = 308;
  out.paper_bridges = 387;
  return out;
}

Dataset make_email_small_dataset(const BenchContext& ctx) {
  const DatasetSubstitute ds = make_enron_like(ctx.seed, ctx.scale);
  Dataset out;
  out.name = "Email";
  out.graph = std::move(ds.net.graph);
  out.partition = Partition(ds.net.membership);
  out.community = ds.planted_small;
  out.paper_nodes = 36692;
  out.paper_community = 80;
  out.paper_bridges = 135;
  return out;
}

Dataset make_email_large_dataset(const BenchContext& ctx) {
  const DatasetSubstitute ds = make_enron_like(ctx.seed, ctx.scale);
  Dataset out;
  out.name = "Email";
  out.graph = std::move(ds.net.graph);
  out.partition = Partition(ds.net.membership);
  out.community = ds.planted_medium;
  out.paper_nodes = 36692;
  out.paper_community = 2631;
  out.paper_bridges = 2250;
  return out;
}

void print_dataset_banner(std::ostream& os, const Dataset& ds,
                          const ExperimentSetup& setup) {
  os << ds.name << " substitute: |N|=" << ds.graph.num_nodes()
     << " |C|=" << ds.partition.size_of(ds.community)
     << " |R|=" << setup.rumors.size()
     << " |B|=" << setup.bridges.bridge_ends.size() << "   (paper: |N|="
     << ds.paper_nodes << " |C|=" << ds.paper_community
     << " |B|=" << ds.paper_bridges << ")\n";
}

void run_opoao_figure(std::ostream& os, const Dataset& ds,
                      const BenchContext& ctx,
                      const std::vector<double>& rumor_fractions) {
  for (double rumor_fraction : rumor_fractions) {
    run_opoao_block(os, ds, ctx, rumor_fraction);
  }
}

void run_opoao_block(std::ostream& os, const Dataset& ds,
                     const BenchContext& ctx, double rumor_fraction) {
  const NodeId csize = ds.partition.size_of(ds.community);
  const std::size_t nr = std::max<std::size_t>(
      1, static_cast<std::size_t>(rumor_fraction * csize));
  os << "--- |R| = " << nr << " (" << fixed(rumor_fraction * 100, 0)
     << "% of |C|) ---\n";
  const ExperimentSetup setup =
      prepare_experiment(ds.graph, ds.partition, ds.community, nr,
                         ctx.seed + 101);
  print_dataset_banner(os, ds, setup);

  LcrbOptions opts;
  opts.budget = setup.rumors.size();
  opts.selector_seed = ctx.seed + 5;
  opts.alpha = 0.95;
  opts.max_candidates = ctx.max_candidates;
  opts.sigma_samples = ctx.sigma_samples;
  opts.sigma_seed = ctx.seed + 7;
  opts.max_hops = 31;

  MonteCarloConfig mc;
  mc.runs = ctx.mc_runs;
  mc.max_hops = 31;
  mc.seed = ctx.seed + 13;

  const SelectorKind kinds[] = {SelectorKind::kGreedy, SelectorKind::kProximity,
                                SelectorKind::kMaxDegree,
                                SelectorKind::kNoBlocking};
  std::vector<HopSeries> series;
  std::vector<std::size_t> sizes;
  for (SelectorKind kind : kinds) {
    Timer t;
    opts.selector = kind;
    // NoBlocking sizes itself (empty); a budget there is rejected.
    opts.budget =
        kind == SelectorKind::kNoBlocking ? 0 : setup.rumors.size();
    const auto protectors = select_protectors(setup, opts, ctx.pool);
    const HopSeries s = evaluate_protectors(setup, protectors, mc, ctx.pool);
    series.push_back(s);
    sizes.push_back(protectors.size());
    os << "  " << to_string(kind) << ": |P|=" << protectors.size()
       << ", saved=" << fixed(100.0 * s.saved_fraction_mean) << "%"
       << ", select+eval=" << fixed(t.seconds(), 2) << "s\n";
  }

  TextTable table;
  table.set_header({"hop", "Greedy", "Proximity", "MaxDegree", "NoBlocking"});
  for (std::uint32_t h = 1; h <= 31; h += 2) {
    table.add_values(h, fixed(series[0].infected_mean[h]),
                     fixed(series[1].infected_mean[h]),
                     fixed(series[2].infected_mean[h]),
                     fixed(series[3].infected_mean[h]));
  }
  os << "\nInfected nodes vs hops (OPOAO, " << mc.runs << " runs, |P|=|R|="
     << setup.rumors.size() << "):\n";
  table.print(os);
  os << "\n";

  if (!ctx.csv_dir.empty()) {
    const std::string path = ctx.csv_dir + "/opoao_" + ds.name + "_C" +
                             std::to_string(csize) + "_R" +
                             std::to_string(setup.rumors.size()) + ".csv";
    CsvWriter csv(path);
    csv.write_header({"hop", "greedy", "proximity", "maxdegree", "noblocking"});
    for (std::uint32_t h = 0; h <= 31; ++h) {
      csv.write_values(h, series[0].infected_mean[h], series[1].infected_mean[h],
                       series[2].infected_mean[h], series[3].infected_mean[h]);
    }
    os << "wrote " << path << "\n";
  }
}

TableOneRow run_table1_row(const Dataset& ds, const BenchContext& ctx,
                           double rumor_fraction) {
  const NodeId csize = ds.partition.size_of(ds.community);
  const std::size_t nr = std::max<std::size_t>(
      1, static_cast<std::size_t>(rumor_fraction * csize));

  RunningStats scbg_cost, prox_cost, md_cost;
  Rng rng(ctx.seed + 31);
  for (std::size_t trial = 0; trial < ctx.trials; ++trial) {
    const ExperimentSetup setup = prepare_experiment(
        ds.graph, ds.partition, ds.community, nr, ctx.seed + 500 + trial);
    if (setup.bridges.bridge_ends.empty()) continue;

    const ScbgResult sc =
        scbg_from_bridges(ds.graph, setup.rumors, setup.bridges);
    scbg_cost.add(static_cast<double>(sc.protectors.size()));

    const auto md_order =
        maxdegree_protectors(ds.graph, setup.rumors, ds.graph.num_nodes());
    const CoverCostResult md = cover_cost_doam(
        ds.graph, setup.rumors, setup.bridges.bridge_ends, md_order);
    md_cost.add(static_cast<double>(md.cost));

    Rng prox_rng(rng.next());
    const auto px_order = proximity_protectors(
        ds.graph, setup.rumors, ds.graph.num_nodes(), prox_rng);
    const CoverCostResult px = cover_cost_doam(
        ds.graph, setup.rumors, setup.bridges.bridge_ends, px_order);
    prox_cost.add(static_cast<double>(px.cost));
  }

  TableOneRow row;
  row.dataset = ds.name + "/" + std::to_string(ds.graph.num_nodes()) + "/" +
                std::to_string(csize);
  row.rumor_label = fixed(rumor_fraction * 100.0, 0) + "%";
  row.scbg = scbg_cost.mean();
  row.proximity = prox_cost.mean();
  row.maxdegree = md_cost.mean();
  return row;
}

void run_doam_figure(std::ostream& os, const Dataset& ds,
                     const BenchContext& ctx,
                     const std::vector<double>& rumor_fractions) {
  for (double frac : rumor_fractions) {
    const NodeId csize = ds.partition.size_of(ds.community);
    const std::size_t nr =
        std::max<std::size_t>(1, static_cast<std::size_t>(frac * csize));

    // Average the deterministic DOAM trajectories over rumor re-draws.
    const std::uint32_t hops = 10;
    std::vector<RunningStats> scbg_s(hops + 1), px_s(hops + 1),
        md_s(hops + 1), nb_s(hops + 1);
    RunningStats psize;

    Rng rng(ctx.seed + 71);
    for (std::size_t trial = 0; trial < ctx.trials; ++trial) {
      const ExperimentSetup setup = prepare_experiment(
          ds.graph, ds.partition, ds.community, nr, ctx.seed + 900 + trial);
      if (setup.bridges.bridge_ends.empty()) continue;

      const ScbgResult sc =
          scbg_from_bridges(ds.graph, setup.rumors, setup.bridges);
      const std::size_t size = sc.protectors.size();
      psize.add(static_cast<double>(size));

      const auto px = sized_heuristic_set(ds.graph, setup,
                                          SelectorKind::kProximity, size, rng);
      const auto md = sized_heuristic_set(ds.graph, setup,
                                          SelectorKind::kMaxDegree, size, rng);

      auto record = [&](const std::vector<NodeId>& prot,
                        std::vector<RunningStats>& out) {
        const DiffusionResult r =
            simulate(ds.graph, {setup.rumors, prot}, /*seed=*/0,
                     DiffusionModel::kDoam, {.max_hops = 0xffffffff});
        for (std::uint32_t h = 0; h <= hops; ++h) {
          out[h].add(static_cast<double>(r.cumulative_infected_at(h)));
        }
      };
      record(sc.protectors, scbg_s);
      record(px, px_s);
      record(md, md_s);
      record({}, nb_s);
    }

    os << ds.name << ", |R|=" << nr << " (" << fixed(frac * 100, 0)
       << "% of |C|), |P|=SCBG size=" << fixed(psize.mean()) << ":\n";
    TextTable table;
    table.set_header({"hop", "SCBG", "Proximity", "MaxDegree", "NoBlocking"});
    for (std::uint32_t h = 0; h <= hops; ++h) {
      table.add_values(h, fixed(scbg_s[h].mean()), fixed(px_s[h].mean()),
                       fixed(md_s[h].mean()), fixed(nb_s[h].mean()));
    }
    table.print(os);
    os << "\n";

    if (!ctx.csv_dir.empty()) {
      const std::string path = ctx.csv_dir + "/doam_" + ds.name + "_C" +
                               std::to_string(csize) + "_R" +
                               std::to_string(nr) + ".csv";
      CsvWriter csv(path);
      csv.write_header({"hop", "scbg", "proximity", "maxdegree", "noblocking"});
      for (std::uint32_t h = 0; h <= hops; ++h) {
        csv.write_values(h, scbg_s[h].mean(), px_s[h].mean(), md_s[h].mean(),
                         nb_s[h].mean());
      }
      os << "wrote " << path << "\n";
    }
  }
}

}  // namespace lcrb::bench
