// Ablation: how the community-detection method upstream affects rumor
// blocking downstream.
//
// The paper delegates community structure to Louvain [25]. We compare
// planted ground truth, Louvain, and label propagation on the same network:
// partition quality (NMI vs planted), the bridge-end set each induces, the
// resulting SCBG cost, and — scored against the *planted* boundary — how
// many of the true bridge ends the SCBG seeds actually save under DOAM.
#include <iostream>

#include "common.h"

#include "community/label_propagation.h"
#include "community/louvain.h"
#include "community/nmi.h"
#include "diffusion/cascade.h"
#include "diffusion/doam.h"
#include "lcrb/bridge.h"
#include "lcrb/scbg.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace lcrb::bench;
  using namespace lcrb;
  BenchContext ctx = parse_context(
      argc, argv, "Ablation — community detection method", 0.3);
  const Dataset ds = make_hep_dataset(ctx);
  const Partition& truth = ds.partition;

  struct Method {
    const char* label;
    Partition partition;
  };
  std::vector<Method> methods;
  methods.push_back({"ground truth", truth});
  methods.push_back({"louvain", louvain(ds.graph, {.seed = ctx.seed + 3})});
  methods.push_back(
      {"label prop", label_propagation(ds.graph, {.seed = ctx.seed + 3})});

  // The true rumor community and one fixed rumor draw inside it.
  const ExperimentSetup true_setup = prepare_experiment(
      ds.graph, truth, ds.community,
      std::max<std::size_t>(3, truth.size_of(ds.community) / 10),
      ctx.seed + 101);
  print_dataset_banner(std::cout, ds, true_setup);

  TextTable table;
  table.set_header({"method", "communities", "NMI", "|C_r|", "|B|",
                    "SCBG |P|", "true bridge ends saved"});
  for (const Method& m : methods) {
    const double nmi = normalized_mutual_information(m.partition, truth);
    // Map the rumor seeds into this partition: the community holding the
    // majority of them plays the rumor community.
    std::vector<std::size_t> votes(m.partition.num_communities(), 0);
    for (NodeId r : true_setup.rumors) ++votes[m.partition.community_of(r)];
    const CommunityId rc = static_cast<CommunityId>(
        std::max_element(votes.begin(), votes.end()) - votes.begin());
    // Keep only the seeds that landed in that community (the method's view).
    std::vector<NodeId> rumors;
    for (NodeId r : true_setup.rumors) {
      if (m.partition.community_of(r) == rc) rumors.push_back(r);
    }
    if (rumors.empty()) continue;

    const BridgeEndResult bridges =
        find_bridge_ends(ds.graph, m.partition, rc, rumors);
    std::size_t scbg_cost = 0;
    double saved = 1.0;
    if (!bridges.bridge_ends.empty()) {
      const ScbgResult sc =
          scbg_from_bridges(ds.graph, rumors, bridges);
      scbg_cost = sc.protectors.size();
      // Score against the PLANTED boundary with the full rumor set.
      SeedSets seeds{true_setup.rumors, sc.protectors};
      const auto ok =
          doam_saved(ds.graph, seeds, true_setup.bridges.bridge_ends);
      std::size_t n_saved = 0;
      for (bool s : ok) n_saved += s;
      saved = true_setup.bridges.bridge_ends.empty()
                  ? 1.0
                  : static_cast<double>(n_saved) /
                        static_cast<double>(
                            true_setup.bridges.bridge_ends.size());
    }
    table.add_values(m.label, m.partition.num_communities(), fixed(nmi, 3),
                     m.partition.size_of(rc), bridges.bridge_ends.size(),
                     scbg_cost, fixed(100.0 * saved) + "%");
  }
  table.print(std::cout);
  std::cout << "\n(true-bridge-end protection uses the planted boundary and "
               "the full rumor\n seed set, so detection mistakes show up as "
               "unprotected true bridge ends)\n";
  return 0;
}
