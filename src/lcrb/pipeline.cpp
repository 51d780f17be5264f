#include "lcrb/pipeline.h"

#include <algorithm>

#include "graph/centrality.h"
#include "lcrb/cldag.h"
#include "lcrb/heuristics.h"
#include "util/error.h"
#include "util/rng.h"

namespace lcrb {

template <GraphView G>
ExperimentSetup prepare_experiment(const G& g, const Partition& p,
                                   CommunityId rumor_community,
                                   std::size_t num_rumors,
                                   std::uint64_t seed) {
  LCRB_REQUIRE(p.num_nodes() == g.num_nodes(),
               "partition does not cover the graph");
  LCRB_REQUIRE(rumor_community < p.num_communities(),
               "rumor community out of range");
  const std::vector<NodeId>& members = p.members(rumor_community);
  LCRB_REQUIRE(num_rumors >= 1, "need at least one rumor originator");
  LCRB_REQUIRE(num_rumors <= members.size(),
               "more rumor originators than community members");

  ExperimentSetup setup;
  setup.graph = g;
  setup.partition = &p;
  setup.rumor_community = rumor_community;

  // Partial Fisher-Yates over a copy of the member list.
  std::vector<NodeId> pool = members;
  Rng rng(seed);
  for (std::size_t i = 0; i < num_rumors; ++i) {
    const std::size_t j = i + rng.next_below(pool.size() - i);
    std::swap(pool[i], pool[j]);
  }
  pool.resize(num_rumors);
  std::sort(pool.begin(), pool.end());
  setup.rumors = std::move(pool);

  setup.bridges = find_bridge_ends(g, p, rumor_community, setup.rumors);
  return setup;
}

template <GraphView G>
ExperimentSetup prepare_experiment_with_rumors(const G& g,
                                               const Partition& p,
                                               std::vector<NodeId> rumors) {
  LCRB_REQUIRE(p.num_nodes() == g.num_nodes(),
               "partition does not cover the graph");
  LCRB_REQUIRE(!rumors.empty(), "need at least one rumor originator");
  std::sort(rumors.begin(), rumors.end());
  rumors.erase(std::unique(rumors.begin(), rumors.end()), rumors.end());
  for (NodeId r : rumors) {
    LCRB_REQUIRE(r < g.num_nodes(), "rumor originator out of range");
  }
  const CommunityId c = p.community_of(rumors.front());
  for (NodeId r : rumors) {
    LCRB_REQUIRE(p.community_of(r) == c,
                 "rumor originators must share one community");
  }
  ExperimentSetup setup;
  setup.graph = g;
  setup.partition = &p;
  setup.rumor_community = c;
  setup.rumors = std::move(rumors);
  setup.bridges = find_bridge_ends(g, p, c, setup.rumors);
  return setup;
}

ExperimentSetup prepare_experiment(GraphRef g, const Partition& p,
                                   CommunityId rumor_community,
                                   std::size_t num_rumors,
                                   std::uint64_t seed) {
  return g.visit([&](const auto& gr) {
    return prepare_experiment(gr, p, rumor_community, num_rumors, seed);
  });
}

ExperimentSetup prepare_experiment_with_rumors(GraphRef g, const Partition& p,
                                               std::vector<NodeId> rumors) {
  return g.visit([&](const auto& gr) {
    return prepare_experiment_with_rumors(gr, p, std::move(rumors));
  });
}

namespace {

/// The protector set of every selector but the greedy.
template <class G>
std::vector<NodeId> baseline_protectors(const G& g,
                                        const ExperimentSetup& setup,
                                        const LcrbOptions& opts,
                                        std::size_t budget, ThreadPool* pool) {
  Rng rng(opts.selector_seed);
  switch (opts.selector) {
    case SelectorKind::kGreedy:  // served by select_greedy
    case SelectorKind::kNoBlocking:
      return {};
    case SelectorKind::kMaxDegree:
      return maxdegree_protectors(g, setup.rumors, budget);
    case SelectorKind::kProximity:
      return proximity_protectors(g, setup.rumors, budget, rng);
    case SelectorKind::kRandom:
      return random_protectors(g, setup.rumors, budget, rng);
    case SelectorKind::kPageRank:
      return pagerank_protectors(g, setup.rumors, budget);
    case SelectorKind::kGvs: {
      GvsConfig gc = opts.gvs_config();
      gc.budget = budget;
      return gvs_protectors(g, setup.rumors, gc, pool).protectors;
    }
    case SelectorKind::kBetweenness: {
      const std::vector<double> bc = betweenness_centrality(g);
      std::vector<bool> is_rumor(g.num_nodes(), false);
      for (NodeId r : setup.rumors) is_rumor[r] = true;
      std::vector<NodeId> order;
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (!is_rumor[v]) order.push_back(v);
      }
      std::stable_sort(order.begin(), order.end(),
                       [&bc](NodeId a, NodeId b) { return bc[a] > bc[b]; });
      if (order.size() > budget) order.resize(budget);
      return order;
    }
    case SelectorKind::kDegreeDiscount:
      return degree_discount(g, budget, 0.05, setup.rumors);
    case SelectorKind::kScbg:
      return scbg_from_bridges(g, setup.rumors, setup.bridges, pool)
          .protectors;
    case SelectorKind::kCldag:
      return cldag_protectors(g, setup.rumors, setup.bridges.bridge_ends,
                              budget, opts.cldag_theta)
          .protectors;
  }
  throw Error("unknown selector kind");
}

/// The LCRB-P greedy in every variant: RIS or Monte-Carlo sigma, one
/// campaign or several, against lent warm state or a private one.
template <class G>
Selection select_greedy(const G& g, const ExperimentSetup& setup,
                        const LcrbOptions& opts, std::size_t budget,
                        ThreadPool* pool, WarmSigma warm) {
  if (opts.sigma_mode == SigmaMode::kRis) {
    // No candidate restriction: only nodes in some RR set can ever have a
    // positive coverage gain.
    RisGreedyResult r =
        warm.ris != nullptr
            ? ris_greedy_with_context(opts.alpha, budget, opts.ris_config(),
                                      *warm.ris, pool)
            : ris_greedy_from_bridges(g, setup.rumors, setup.bridges,
                                      opts.alpha, budget, opts.ris_config(),
                                      pool);
    Selection out({.protectors = std::move(r.protectors),
                   .achieved_fraction = r.achieved_fraction,
                   .gain_history = std::move(r.gain_history),
                   .sigma_evaluations = r.rr_sets,
                   .candidate_count = r.distinct_candidates,
                   .nodes_visited = r.nodes_visited});
    out.ris = RisStopping{r.rounds, r.sigma_lower, r.sigma_upper,
                          r.guarantee_met, r.stop_reason};
    return out;
  }
  if (opts.multi_mode != MultiCascadeMode::kOff) {
    MultiGreedyResult r =
        warm.estimator != nullptr
            ? greedy_multi_with_estimator(
                  g, setup.rumors, setup.bridges, opts.greedy_config(),
                  opts.protector_budgets, opts.multi_mode, *warm.estimator,
                  pool)
            : greedy_multi_from_bridges(g, setup.rumors, setup.bridges,
                                        opts.greedy_config(),
                                        opts.protector_budgets,
                                        opts.multi_mode, pool);
    r.combined.protectors = std::move(r.deployed);
    Selection out(std::move(r.combined));
    out.groups = std::move(r.groups);
    return out;
  }
  GreedyConfig gc = opts.greedy_config();
  gc.max_protectors = budget;
  return Selection(
      warm.estimator != nullptr
          ? greedy_lcrbp_with_estimator(g, setup.rumors, setup.bridges, gc,
                                        *warm.estimator, pool)
          : greedy_lcrbp_from_bridges(g, setup.rumors, setup.bridges, gc,
                                      pool));
}

}  // namespace

Selection select(const ExperimentSetup& setup, const LcrbOptions& opts,
                 ThreadPool* pool, WarmSigma warm) {
  LCRB_REQUIRE(setup.graph.valid(), "setup not prepared");
  opts.validate();
  const std::size_t budget = opts.resolved_budget(setup.rumors.size());
  // One backend dispatch per query; every selector is a template over the
  // concrete graph type.
  return setup.graph.visit([&](const auto& g) -> Selection {
    if (opts.selector == SelectorKind::kGreedy) {
      return select_greedy(g, setup, opts, budget, pool, warm);
    }
    Selection out;
    out.protectors = baseline_protectors(g, setup, opts, budget, pool);
    if (opts.selector == SelectorKind::kScbg) out.achieved_fraction = 1.0;
    return out;
  });
}

std::vector<NodeId> select_protectors(const ExperimentSetup& setup,
                                      const LcrbOptions& opts,
                                      ThreadPool* pool) {
  return select(setup, opts, pool).protectors;
}

HopSeries evaluate_protectors(const ExperimentSetup& setup,
                              std::span<const NodeId> protectors,
                              const MonteCarloConfig& mc, ThreadPool* pool) {
  LCRB_REQUIRE(setup.graph.valid(), "setup not prepared");
  SeedSets seeds;
  seeds.rumors = setup.rumors;
  seeds.protectors.assign(protectors.begin(), protectors.end());
  return setup.graph.visit([&](const auto& g) {
    return monte_carlo_series(g, seeds, mc, setup.bridges.bridge_ends, pool);
  });
}

HopSeries evaluate_protector_groups(
    const ExperimentSetup& setup,
    std::span<const std::vector<NodeId>> rumor_groups,
    std::span<const std::vector<NodeId>> protector_groups,
    CascadePriority priority, const MonteCarloConfig& mc, ThreadPool* pool) {
  LCRB_REQUIRE(setup.graph.valid(), "setup not prepared");
  const SeedSets seeds = make_seed_sets(rumor_groups, protector_groups,
                                        priority);
  LCRB_REQUIRE(seeds.rumor_role_union() == setup.rumors,
               "rumor groups must union to the setup's rumor set");
  return setup.graph.visit([&](const auto& g) {
    return monte_carlo_series(g, seeds, mc, setup.bridges.bridge_ends, pool);
  });
}

#define LCRB_INSTANTIATE_PIPELINE(G)                                          \
  template ExperimentSetup prepare_experiment<G>(                             \
      const G&, const Partition&, CommunityId, std::size_t, std::uint64_t);   \
  template ExperimentSetup prepare_experiment_with_rumors<G>(                 \
      const G&, const Partition&, std::vector<NodeId>);

LCRB_INSTANTIATE_PIPELINE(DiGraph)
LCRB_INSTANTIATE_PIPELINE(EfGraph)

#undef LCRB_INSTANTIATE_PIPELINE

}  // namespace lcrb
