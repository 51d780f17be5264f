// Source detective: locate hidden rumor originators from an infection
// snapshot (the paper's closing research direction).
//
// We plant k hidden originators in one community, let the rumor broadcast
// for a few DOAM hops, hand the snapshot to the locator, and score the
// estimate by hop distance to the truth.
//
// Run:  ./source_detective [--scale 0.2] [--sources 2] [--hops 4] [--trials 10]
#include <iostream>

#include "lcrb/experiments.h"

int main(int argc, char** argv) {
  using namespace lcrb;
  const Args args(argc, argv);
  const double scale = args.get_double("scale", 0.2);
  const auto k = args.get_count<std::size_t>("sources", 2);
  const auto hops = args.get_count<std::uint32_t>("hops", 4);
  const auto trials = args.get_count<std::size_t>("trials", 10);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 4));

  const DatasetSubstitute ds = make_hep_like(seed, scale);
  const DiGraph& g = ds.net.graph;
  const Partition communities(ds.net.membership);
  std::cout << "Network: " << describe(g) << "\n";
  std::cout << "Hidden sources: " << k << ", snapshot after " << hops
            << " DOAM hops, " << trials << " trials\n\n";

  TextTable table;
  table.set_header({"trial", "infected", "estimate radius", "mean err (hops)",
                    "exact hits"});
  RunningStats overall_err, exact_hits;
  Rng rng(seed + 1);
  const auto& members = communities.members(ds.planted_medium);

  for (std::size_t trial = 0; trial < trials; ++trial) {
    // Hidden originators inside the planted community.
    std::vector<NodeId> truth;
    while (truth.size() < k) {
      const NodeId v = members[rng.next_below(members.size())];
      if (std::find(truth.begin(), truth.end(), v) == truth.end()) {
        truth.push_back(v);
      }
    }

    const DiffusionResult r = simulate(g, {truth, {}}, /*seed=*/0,
                                       DiffusionModel::kDoam,
                                       {.max_hops = hops});
    std::vector<NodeId> snapshot;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (r.state[v] == NodeState::kInfected) snapshot.push_back(v);
    }
    if (snapshot.size() < 2 * k) continue;

    SourceLocateConfig cfg;
    cfg.num_sources = k;
    const SourceEstimate est = locate_sources(g, snapshot, cfg);
    const auto errs = source_error(g, truth, est.sources);

    RunningStats trial_err;
    std::size_t hits = 0;
    for (std::uint32_t e : errs) {
      if (e == kUnreached) continue;
      trial_err.add(static_cast<double>(e));
      hits += (e == 0);
    }
    overall_err.merge(trial_err);
    exact_hits.add(static_cast<double>(hits));
    table.add_values(trial, snapshot.size(), est.radius,
                     fixed(trial_err.mean(), 2),
                     std::to_string(hits) + "/" + std::to_string(k));
  }
  table.print(std::cout);
  std::cout << "\nMean localization error: " << fixed(overall_err.mean(), 2)
            << " hops; exact source hits per trial: "
            << fixed(exact_hits.mean(), 2) << "/" << k << "\n";
  return 0;
}
