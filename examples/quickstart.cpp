// Quickstart: the LCRB workflow on a 12-node toy network.
//
//   build graph -> define communities -> pick rumor originators ->
//   find bridge ends -> run SCBG -> verify protection under DOAM.
//
// Run:  ./quickstart
#include <iostream>
#include <string>
#include <vector>

#include "community/partition.h"
#include "diffusion/montecarlo.h"
#include "graph/builder.h"
#include "graph/metrics.h"
#include "lcrb/bridge.h"
#include "lcrb/scbg.h"
#include "util/table.h"

int main() {
  using namespace lcrb;

  // A two-community network. Community 0 (nodes 0-5) hosts the rumor;
  // community 1 (nodes 6-11) must be protected.
  GraphBuilder b;
  // Dense rumor community.
  b.add_undirected_edge(0, 1);
  b.add_undirected_edge(0, 2);
  b.add_undirected_edge(1, 2);
  b.add_undirected_edge(1, 3);
  b.add_undirected_edge(2, 4);
  b.add_undirected_edge(3, 4);
  b.add_undirected_edge(3, 5);
  b.add_undirected_edge(4, 5);
  // Sparse cross-community bridges.
  b.add_edge(4, 6);
  b.add_edge(5, 8);
  // Dense neighbor community.
  b.add_undirected_edge(6, 7);
  b.add_undirected_edge(6, 8);
  b.add_undirected_edge(7, 9);
  b.add_undirected_edge(8, 9);
  b.add_undirected_edge(9, 10);
  b.add_undirected_edge(10, 11);
  const DiGraph g = b.finalize();

  std::cout << "Network: " << describe(g) << "\n\n";

  const Partition communities(
      std::vector<CommunityId>{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1});
  const std::vector<NodeId> rumors{0, 1};

  // Stage 1: bridge ends (boundary nodes of the neighbor community that the
  // rumor can reach).
  const BridgeEndResult bridges =
      find_bridge_ends(g, communities, /*rumor_community=*/0, rumors);
  std::cout << "Bridge ends:";
  for (NodeId v : bridges.bridge_ends) {
    std::cout << "  " << v << " (rumor arrives at hop " << bridges.rumor_dist[v]
              << ")";
  }
  std::cout << "\n";

  // Stage 2: SCBG picks the cheapest protector seed set that saves them all.
  const ScbgResult result = scbg_from_bridges(g, rumors, bridges);
  std::cout << "SCBG protectors:";
  for (NodeId v : result.protectors) std::cout << " " << v;
  std::cout << "  (" << result.protectors.size() << " seeds for "
            << result.bridge_ends.size() << " bridge ends)\n\n";

  // Stage 3: watch both cascades race under DOAM.
  SeedSets seeds{rumors, result.protectors};
  const RealizationParams doam{.max_hops = 0xffffffff};  // race to the end
  const DiffusionResult sim =
      simulate(g, seeds, /*seed=*/0, DiffusionModel::kDoam, doam);
  TextTable table;
  table.set_header({"node", "community", "state", "hop"});
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const char* state = sim.state[v] == NodeState::kInfected   ? "infected"
                        : sim.state[v] == NodeState::kProtected ? "protected"
                                                                 : "inactive";
    table.add_values(v, communities.community_of(v), state,
                     sim.activation_step[v] == kUnreached
                         ? std::string("-")
                         : std::to_string(sim.activation_step[v]));
  }
  table.print(std::cout);

  std::cout << "\nInfected total: " << sim.infected_count()
            << " | protected total: " << sim.protected_count() << "\n";
  std::cout << "Every bridge end uninfected: "
            << (sim.saved_count(result.bridge_ends) ==
                        result.bridge_ends.size()
                    ? "yes"
                    : "NO (bug!)")
            << "\n";
  return 0;
}
