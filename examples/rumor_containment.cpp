// Rumor containment campaign on an Enron-like social network.
//
// The full production pipeline, driven through the query service: generate
// (or load) a network, detect communities with Louvain, register the dataset
// with a QueryService, then compare every protector-selection strategy under
// the OPOAO model with one batched round of select queries (they all share
// the session's warm experiment setup and sigma estimator) followed by one
// evaluate query per strategy.
//
// Run:  ./rumor_containment [--scale 0.05] [--rumors 8] [--runs 60]
//                           [--graph path.txt] [--seed 1]
#include <iostream>
#include <vector>

#include "community/louvain.h"
#include "community/modularity.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/metrics.h"
#include "lcrb/options.h"
#include "service/query_service.h"
#include "util/args.h"
#include "util/error.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace lcrb;
  const Args args(argc, argv);
  const double scale = args.get_double("scale", 0.05);
  const auto num_rumors = args.get_count<std::size_t>("rumors", 8);
  const auto runs = args.get_count<std::size_t>("runs", 60);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 1));

  // 1. Network: load an edge list if given, else the Enron substitute.
  DiGraph g;
  if (args.has("graph")) {
    g = load_edge_list(args.get_string("graph", ""));
    std::cout << "Loaded " << args.get_string("graph", "") << "\n";
  } else {
    g = make_enron_like(seed, scale).net.graph;
    std::cout << "Generated Enron-like substitute (scale " << scale << ")\n";
  }
  std::cout << describe(g) << "\n\n";

  // 2. Community structure via Louvain (what the paper uses).
  const Partition communities = louvain(g, {.seed = seed});
  std::cout << "Louvain found " << communities.num_communities()
            << " communities; modularity " << fixed(modularity(g, communities), 3)
            << "\n";

  // 3. Rumor community: mid-sized so there is a meaningful boundary.
  const CommunityId rc = communities.closest_to_size(
      args.get_count<NodeId>("community-size", 120));
  std::cout << "Rumor community: #" << rc << " with "
            << communities.size_of(rc) << " members\n";

  // 4. Register the dataset with a query service; every query below runs
  // against this one shared session.
  service::QueryService svc;
  svc.registry().open("enron", std::move(g), std::move(communities));

  // Base request: rumor choice + unified options (budget 0 = |rumors|).
  service::QueryRequest base;
  base.dataset = "enron";
  base.op = service::QueryOp::kSelect;
  base.rumor_community = rc;
  base.num_rumors = num_rumors;
  base.rumor_seed = seed + 1;
  base.options.selector_seed = seed + 2;
  base.options.alpha = 0.95;
  base.options.sigma_samples = 30;
  base.options.sigma_seed = seed + 3;
  base.options.max_candidates =
      args.get_count<std::size_t>("candidates", 300);
  base.options.gvs_samples = 20;

  // 5. One batched round of select queries: the batcher groups them onto the
  // shared session, so the experiment setup and sigma estimator are computed
  // once and reused by every strategy.
  const SelectorKind kinds[] = {
      SelectorKind::kGreedy,    SelectorKind::kGvs,
      SelectorKind::kProximity, SelectorKind::kMaxDegree,
      SelectorKind::kPageRank,  SelectorKind::kRandom,
      SelectorKind::kNoBlocking};
  std::vector<service::QueryRequest> selects;
  for (SelectorKind kind : kinds) {
    service::QueryRequest req = base;
    req.id = to_string(kind);
    req.options.selector = kind;
    selects.push_back(req);
  }
  const std::vector<service::QueryResult> selected =
      svc.run_batch(std::move(selects));

  std::cout << "|R| = " << selected.front().rumors.size()
            << ", bridge ends |B| = " << selected.front().num_bridge_ends
            << "\n\n";

  TextTable table;
  table.set_header({"algorithm", "|P|", "infected@7", "infected@15",
                    "infected@31", "bridge ends saved"});
  for (const service::QueryResult& sel : selected) {
    if (!sel.ok) throw Error("select '" + sel.id + "' failed: " + sel.error);
    service::QueryRequest ev = base;
    ev.op = service::QueryOp::kEvaluate;
    ev.id = sel.id;
    ev.protectors = sel.protectors;
    ev.eval_runs = runs;
    ev.eval_seed = seed + 4;
    const service::QueryResult s = svc.run(ev);
    if (!s.ok) throw Error("evaluate '" + s.id + "' failed: " + s.error);
    table.add_values(sel.id, s.protectors.size(),
                     fixed(s.infected_by_hop[7]), fixed(s.infected_by_hop[15]),
                     fixed(s.infected_by_hop[31]),
                     fixed(100.0 * s.saved_fraction) + "%");
  }
  table.print(std::cout);
  std::cout << "\n(" << runs << " Monte-Carlo runs per row, OPOAO model, "
            << "31 hops; protectors budget = |R|)\n";
  return 0;
}
