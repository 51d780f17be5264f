// lcrb — command-line front end for the rumor-blocking library.
//
// Subcommands (all read SNAP-style edge lists; see --help):
//   info <graph>                      structural summary
//   communities <graph>               detect + quality report
//   bridges <graph>                   rumor community -> bridge ends
//   scbg <graph>                      LCRB-D protector seeds (full protection)
//   greedy <graph>                    LCRB-P protector seeds (alpha fraction)
//     --sigma-mode mc|ris             sigma machinery (default mc)
//     --ris-eps E --ris-delta D       RIS stopping-rule accuracy knobs
//     --ris-max-sets N                RR-set cap per pool
//   simulate <graph>                  run one diffusion and print the curve
//   verify <graph>                    re-check the DOAM oracle and the SCBG
//                                     guarantee over random seedings
//   gen <out.txt>                     write a synthetic network
//     --kind hep|enron|er|ba          generator (default enron)
//
// Common flags:
//   --undirected            symmetrize the edge list on load
//   --graph-backend csr|ef  storage backend for the service commands
//                           (ef = Elias-Fano compressed; outputs identical)
//   --seed N                master seed (default 1)
//   --method louvain|lp     community detection (default louvain)
//   --membership m.csv      reuse a saved partition instead of detecting
//   --community-size N      pick the community closest to N (default 100)
//   --rumors K              number of rumor originators (default 5)
//   --rumor-ids a,b,c       explicit originators (overrides --rumors)
//   --rumor-groups "a,b;c"  multi-rumor campaigns: one cascade per ';'-group
//                           (overrides --rumor-ids; union must share one
//                           community). greedy extras: --multi-mode
//                           coordinated|uncoordinated with --protector-budgets
//                           b0,b1,... for per-campaign protector budgets;
//                           simulate extra: --cascade-priority
//                           fixed|lowest|roundrobin.
// See each subcommand below for its extras.
//
// scbg/greedy/simulate are thin QueryService clients: they register the
// loaded graph as a one-dataset session and run a QueryRequest — the same
// code path lcrbd serves over NDJSON (see docs/service.md).
#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "community/detect.h"
#include "community/io.h"
#include "community/partition.h"
#include "community/quality.h"
#include "diffusion/cascade.h"
#include "diffusion/doam.h"
#include "diffusion/montecarlo.h"
#include "graph/backend.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/metrics.h"
#include "lcrb/greedy.h"
#include "lcrb/options.h"
#include "lcrb/pipeline.h"
#include "lcrb/scbg.h"
#include "service/query_service.h"
#include "util/args.h"
#include "util/csv.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace lcrb;

/// The id list of --`flag`: "3,7" -> {3, 7}, strictly (see parse_count_list).
std::vector<NodeId> id_list(const Args& args, const std::string& flag) {
  return parse_count_list<NodeId>(args.get_string(flag, ""), "--" + flag);
}

/// Semicolon-separated groups of comma-separated ids: "0,1;7" -> {{0,1},{7}}.
std::vector<std::vector<NodeId>> parse_id_groups(const std::string& spec) {
  std::vector<std::vector<NodeId>> out;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = spec.find(';', begin);
    if (end == std::string::npos) end = spec.size();
    out.push_back(parse_count_list<NodeId>(spec.substr(begin, end - begin),
                                           "--rumor-groups"));
    begin = end + 1;
  }
  return out;
}

DiGraph load(const Args& args) {
  LCRB_REQUIRE(!args.positional().empty(),
               "expected: lcrb <subcommand> <graph.txt> [flags]");
  const std::string path = args.positional().back();
  return load_edge_list(path, args.get_bool("undirected"));
}

Partition detect(const DiGraph& g, const Args& args) {
  if (args.has("membership")) {
    Partition p = load_membership(args.get_string("membership", ""));
    LCRB_REQUIRE(p.num_nodes() == g.num_nodes(),
                 "--membership file does not match the graph");
    return p;
  }
  const std::string method = args.get_string("method", "louvain");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  if (method == "louvain") {
    return detect_communities(g, CommunityMethod::kLouvain, seed);
  }
  if (method == "lp" || method == "label_propagation") {
    return detect_communities(g, CommunityMethod::kLabelPropagation, seed);
  }
  throw Error("unknown --method '" + method + "' (louvain|lp)");
}

/// Shared setup for bridges/scbg/greedy/simulate.
ExperimentSetup setup_experiment(const DiGraph& g, const Partition& p,
                                 const Args& args) {
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const CommunityId rc =
      p.closest_to_size(args.get_count<NodeId>("community-size", 100));

  if (args.has("rumor-ids")) {
    return prepare_experiment_with_rumors(g, p, id_list(args, "rumor-ids"));
  }
  const auto k = args.get_count<std::size_t>("rumors", 5);
  return prepare_experiment(g, p, rc,
                            std::min<std::size_t>(k, p.size_of(rc)), seed);
}

void print_ids(const char* label, const std::vector<NodeId>& ids) {
  std::cout << label << " (" << ids.size() << "):";
  for (NodeId v : ids) std::cout << ' ' << v;
  std::cout << "\n";
}

/// Request shaped by the shared rumor flags (--rumor-ids / --community-size /
/// --rumors / --seed) — mirrors setup_experiment for the service commands.
service::QueryRequest base_request(const Args& args) {
  service::QueryRequest req;
  req.dataset = "cli";
  if (args.has("rumor-groups")) {
    req.rumor_groups = parse_id_groups(args.get_string("rumor-groups", ""));
  } else if (args.has("rumor-ids")) {
    req.rumor_ids = id_list(args, "rumor-ids");
  } else {
    req.community_size = args.get_count<std::size_t>("community-size", 100);
    req.num_rumors = args.get_count<std::size_t>("rumors", 5);
  }
  req.rumor_seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  return req;
}

/// One-dataset service over the CLI's graph/community flags. The session
/// holds whichever storage backend --graph-backend names (default CSR).
std::unique_ptr<service::QueryService> make_service(const Args& args) {
  DiGraph g = load(args);
  Partition p = detect(g, args);
  GraphBackend backend = GraphBackend::kCsr;
  if (args.has("graph-backend")) {
    backend = parse_graph_backend(args.get_string("graph-backend", ""));
  }
  auto svc = std::make_unique<service::QueryService>();
  svc->registry().open("cli", to_backend(std::move(g), backend),
                       std::move(p));
  return svc;
}

int cmd_info(const Args& args) {
  const DiGraph g = load(args);
  std::cout << describe(g) << "\n";
  const DegreeStats d = degree_stats(g);
  TextTable t;
  t.set_header({"metric", "value"});
  t.add_values("nodes", g.num_nodes());
  t.add_values("arcs", g.num_edges());
  t.add_values("avg out-degree", fixed(d.avg_out, 2));
  t.add_values("median out-degree", fixed(d.p50_out, 1));
  t.add_values("p90 out-degree", fixed(d.p90_out, 1));
  t.add_values("max out-degree", d.max_out);
  t.add_values("isolated nodes", d.isolated);
  t.add_values("reciprocity", fixed(reciprocity(g), 3));
  t.print(std::cout);
  return 0;
}

int cmd_communities(const Args& args) {
  const DiGraph g = load(args);
  const Partition p = detect(g, args);
  const PartitionQuality q = partition_quality(g, p);
  TextTable t;
  t.set_header({"metric", "value"});
  t.add_values("communities", q.num_communities);
  t.add_values("modularity", fixed(q.modularity, 4));
  t.add_values("coverage", fixed(q.coverage, 4));
  t.add_values("mean conductance", fixed(q.mean_conductance, 4));
  t.add_values("largest", q.largest);
  t.add_values("smallest", q.smallest);
  t.print(std::cout);
  if (args.has("out")) {
    CsvWriter csv(args.get_string("out", ""));
    csv.write_header({"node", "community"});
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      csv.write_values(v, p.community_of(v));
    }
    std::cout << "membership written to " << args.get_string("out", "") << "\n";
  }
  return 0;
}

int cmd_bridges(const Args& args) {
  const DiGraph g = load(args);
  const Partition p = detect(g, args);
  const ExperimentSetup s = setup_experiment(g, p, args);
  std::cout << "rumor community #" << s.rumor_community << " ("
            << p.size_of(s.rumor_community) << " nodes)\n";
  print_ids("rumor originators", s.rumors);
  print_ids("bridge ends", s.bridges.bridge_ends);
  return 0;
}

int cmd_scbg(const Args& args) {
  const auto svc = make_service(args);
  service::QueryRequest req = base_request(args);
  req.op = service::QueryOp::kSelect;
  req.options.selector = SelectorKind::kScbg;  // sizes itself; budget stays 0
  const service::QueryResult r = svc->run(req);
  if (!r.ok) throw Error(r.error);
  print_ids("rumor originators", r.rumors);
  std::cout << "bridge ends: " << r.num_bridge_ends << "\n";
  print_ids("protector seeds", r.protectors);
  std::cout << "full DOAM protection verified: yes\n";
  return 0;
}

int cmd_greedy(const Args& args) {
  const auto svc = make_service(args);
  service::QueryRequest req = base_request(args);
  req.op = service::QueryOp::kSelect;
  req.options = LcrbOptions::from_args(args);
  // The CLI's historical defaults where the shared flag set differs.
  if (!args.has("alpha")) req.options.alpha = 0.9;
  if (!args.has("candidates")) req.options.max_candidates = 300;
  if (!args.has("samples")) req.options.sigma_samples = 30;
  if (!args.has("sigma-seed")) {
    req.options.sigma_seed =
        static_cast<std::uint64_t>(args.get_int("seed", 1)) + 7;
  }

  const service::QueryResult r = svc->run(req);
  if (!r.ok) throw Error(r.error);
  print_ids("protector seeds", r.protectors);
  for (std::size_t c = 0; c < r.protector_groups.size(); ++c) {
    const std::string label = "  campaign " + std::to_string(c);
    print_ids(label.c_str(), r.protector_groups[c]);
  }
  std::cout << "achieved protected fraction: " << fixed(r.achieved_fraction, 3)
            << " (alpha " << req.options.alpha << ")\n";
  if (req.options.multi_mode != MultiCascadeMode::kOff) {
    std::cout << "multi-campaign mode: " << to_string(req.options.multi_mode)
              << " (" << r.protector_groups.size() << " campaigns)\n";
  }
  if (req.options.sigma_mode == SigmaMode::kRis) {
    std::cout << "sigma served by: ris (" << r.sigma_evaluations
              << " RR sets/pool, " << r.meta.get_int("ris_rounds", 0)
              << " stopping checkpoints)\n"
              << "certified sigma bounds: ["
              << fixed(r.meta.get_double("ris_sigma_lower", 0.0), 2) << ", "
              << fixed(r.meta.get_double("ris_sigma_upper", 0.0), 2) << "]\n";
  }
  std::cout << "sigma single-run evaluations: " << r.sigma_evaluations << "\n";
  return 0;
}

int cmd_simulate(const Args& args) {
  const auto svc = make_service(args);
  service::QueryRequest req = base_request(args);
  req.op = service::QueryOp::kEvaluate;
  if (args.has("protector-ids")) {
    req.protectors = id_list(args, "protector-ids");
  }
  req.options.model =
      diffusion_model_from_string(args.get_string("model", "opoao"));
  req.options.cascade_priority = cascade_priority_from_string(
      args.get_string("cascade-priority", "fixed"));
  req.options.ic_edge_prob = args.get_double("ic-prob", 0.1);
  req.options.max_hops = args.get_count<std::uint32_t>("hops", 31);
  req.eval_runs = args.get_count<std::size_t>("runs", 100);
  req.eval_seed = static_cast<std::uint64_t>(args.get_int("seed", 1)) + 13;

  const service::QueryResult r = svc->run(req);
  if (!r.ok) throw Error(r.error);
  TextTable t;
  t.set_header({"hop", "infected (mean)", "ci95", "protected (mean)"});
  for (std::size_t h = 0; h < r.infected_by_hop.size(); ++h) {
    t.add_values(h, fixed(r.infected_by_hop[h]), fixed(r.infected_ci95[h], 2),
                 fixed(r.protected_by_hop[h]));
  }
  t.print(std::cout);
  std::cout << "bridge ends saved: " << fixed(100.0 * r.saved_fraction)
            << "%\n";
  return 0;
}

int cmd_gen(const Args& args) {
  // Generate a calibrated synthetic network (and its planted membership)
  // for demos and self-tests: lcrb gen out.txt --kind hep|enron|er|ba
  //   [--scale 0.05 | --nodes N] [--seed 1] [--membership-out m.csv]
  LCRB_REQUIRE(!args.positional().empty(), "expected: lcrb gen <out.txt>");
  const std::string out_path = args.positional().back();
  const std::string kind = args.get_string("kind", "enron");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const double scale = args.get_double("scale", 0.05);

  DiGraph g;
  std::vector<CommunityId> membership;
  if (kind == "hep") {
    DatasetSubstitute ds = make_hep_like(seed, scale);
    g = std::move(ds.net.graph);
    membership = std::move(ds.net.membership);
  } else if (kind == "enron") {
    DatasetSubstitute ds = make_enron_like(seed, scale);
    g = std::move(ds.net.graph);
    membership = std::move(ds.net.membership);
  } else if (kind == "er") {
    Rng rng(seed);
    const auto n = args.get_count<NodeId>("nodes", 1000);
    g = erdos_renyi(n, args.get_double("p", 0.01), true, rng);
  } else if (kind == "ba") {
    Rng rng(seed);
    const auto n = args.get_count<NodeId>("nodes", 1000);
    g = barabasi_albert(n, args.get_count<NodeId>("m", 3), rng);
  } else {
    throw Error("unknown --kind '" + kind + "' (hep|enron|er|ba)");
  }

  save_edge_list(g, out_path);
  std::cout << "wrote " << out_path << ": " << describe(g) << "\n";
  if (args.has("membership-out") && !membership.empty()) {
    save_membership(Partition(membership),
                    args.get_string("membership-out", ""));
    std::cout << "wrote " << args.get_string("membership-out", "") << "\n";
  }
  return 0;
}

int cmd_verify(const Args& args) {
  // Self-check the library's core invariants on the USER'S graph: the DOAM
  // distance oracle and the SCBG full-protection guarantee, over several
  // random seedings. A clean pass means the installation and the data are
  // sane end to end.
  const DiGraph g = load(args);
  const Partition p = detect(g, args);
  const auto trials = args.get_count<std::size_t>("trials", 5);
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));

  std::size_t oracle_checks = 0, scbg_checks = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    // Random rumor community and seeds.
    const CommunityId rc =
        static_cast<CommunityId>(rng.next_below(p.num_communities()));
    const auto& members = p.members(rc);
    const std::size_t nr =
        std::min<std::size_t>(members.size(), 1 + rng.next_below(4));
    ExperimentSetup s = prepare_experiment(g, p, rc, nr, rng.next());

    // 1. DOAM simulator vs analytic distance rule on every node.
    SeedSets seeds;
    seeds.rumors = s.rumors;
    for (int i = 0; i < 3; ++i) {
      const auto v = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      if (std::find(s.rumors.begin(), s.rumors.end(), v) == s.rumors.end() &&
          std::find(seeds.protectors.begin(), seeds.protectors.end(), v) ==
              seeds.protectors.end()) {
        seeds.protectors.push_back(v);
      }
    }
    // Uncapped: the distance rule is the full race.
    const DiffusionResult sim = simulate(g, seeds, /*seed=*/0,
                                         DiffusionModel::kDoam,
                                         {.max_hops = 0xffffffff});
    std::vector<NodeId> all(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) all[v] = v;
    const auto saved = doam_saved(g, seeds, all);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      LCRB_REQUIRE(saved[v] == (sim.state[v] != NodeState::kInfected),
                   "DOAM oracle mismatch at node " + std::to_string(v));
      ++oracle_checks;
    }

    // 2. SCBG guarantee (scbg verifies internally and throws on violation).
    if (!s.bridges.bridge_ends.empty()) {
      const ScbgResult r = scbg_from_bridges(g, s.rumors, s.bridges);
      scbg_checks += r.bridge_ends.size();
    }
  }
  std::cout << "OK: " << oracle_checks << " DOAM oracle checks, "
            << scbg_checks << " SCBG-protected bridge ends across " << trials
            << " random seedings\n";
  return 0;
}

int usage() {
  std::cout <<
      "usage: lcrb <info|communities|bridges|scbg|greedy|simulate|verify|"
      "gen> <file> [flags]\n"
      "  lcrb <info|communities|bridges|scbg|greedy|simulate|verify> "
      "<graph.txt>  reads the graph\n"
      "  lcrb gen <out.txt>  writes a synthetic graph\n"
      "see the header of tools/lcrb_cli.cpp for the flag reference\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const Args args(argc - 1, argv + 1);
  try {
    if (cmd == "info") return cmd_info(args);
    if (cmd == "communities") return cmd_communities(args);
    if (cmd == "bridges") return cmd_bridges(args);
    if (cmd == "scbg") return cmd_scbg(args);
    if (cmd == "greedy") return cmd_greedy(args);
    if (cmd == "simulate") return cmd_simulate(args);
    if (cmd == "verify") return cmd_verify(args);
    if (cmd == "gen") return cmd_gen(args);
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
