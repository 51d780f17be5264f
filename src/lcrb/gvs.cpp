#include "lcrb/gvs.h"

#include <algorithm>
#include <queue>

#include "graph/ef_graph.h"
#include "graph/graph.h"
#include "util/error.h"

namespace lcrb {

template <GraphView G>
GvsResult gvs_protectors(const G& g, std::span<const NodeId> rumors,
                         const GvsConfig& cfg, ThreadPool* pool) {
  LCRB_REQUIRE(cfg.budget >= 1, "GVS needs a positive budget");
  LCRB_REQUIRE(cfg.sigma.samples >= 1, "GVS needs at least one sample");
  LCRB_REQUIRE(!rumors.empty(), "GVS needs rumor originators");

  // Targets: every non-rumor node. Rumor seeds are always infected, so a
  // sample's infected count is n minus its uninfected targets.
  std::vector<bool> is_rumor(g.num_nodes(), false);
  for (NodeId r : rumors) {
    LCRB_REQUIRE(r < g.num_nodes(), "rumor out of range");
    is_rumor[r] = true;
  }
  std::vector<NodeId> targets;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!is_rumor[v]) targets.push_back(v);
  }
  SigmaEstimator::check_footprint(g, targets.size(), cfg.sigma, "gvs_samples");
  const SigmaEstimator est(g, {rumors.begin(), rumors.end()}, targets,
                           cfg.sigma, pool);
  // E[#infected] from the exact integer total: (n * S - sum uninfected) / S.
  const auto samples = static_cast<double>(cfg.sigma.samples);
  const double all_infected = static_cast<double>(g.num_nodes()) * samples;
  auto expected_infected = [&](const SigmaEstimator::Score& s) {
    return (all_infected - s.uninfected) / samples;
  };

  // Candidates: the targets, optionally capped by out-degree rank (high
  // influence first — the GVS paper's own "highly influential nodes").
  std::vector<NodeId> candidates = std::move(targets);
  if (cfg.max_candidates > 0 && candidates.size() > cfg.max_candidates) {
    std::stable_sort(candidates.begin(), candidates.end(),
                     [&g](NodeId a, NodeId b) {
                       return g.out_degree(a) > g.out_degree(b);
                     });
    candidates.resize(cfg.max_candidates);
  }

  GvsResult out;
  out.baseline_infected = expected_infected(est.score({}));
  double current = out.baseline_infected;
  std::vector<NodeId> chosen;

  struct Entry {
    double reduction;
    NodeId node;
    std::size_t round;
    bool operator<(const Entry& o) const { return reduction < o.reduction; }
  };
  std::priority_queue<Entry> heap;

  // Round 0: every candidate in one batch (OPOAO: 64 lanes per pass).
  const std::vector<SigmaEstimator::Score> round0 =
      est.sigma_batch({}, candidates);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    heap.push({current - expected_infected(round0[i]), candidates[i], 0});
  }

  while (chosen.size() < cfg.budget && !heap.empty()) {
    Entry top = heap.top();
    heap.pop();
    if (top.round != chosen.size()) {
      std::vector<NodeId> trial = chosen;
      trial.push_back(top.node);
      top.reduction = current - expected_infected(est.score(trial));
      top.round = chosen.size();
      if (!heap.empty() && top.reduction < heap.top().reduction) {
        heap.push(top);
        continue;
      }
    }
    chosen.push_back(top.node);
    current -= top.reduction;
    out.infected_history.push_back(current);
  }

  out.protectors = std::move(chosen);
  out.final_infected = current;
  return out;
}

template GvsResult gvs_protectors<DiGraph>(const DiGraph&,
                                           std::span<const NodeId>,
                                           const GvsConfig&, ThreadPool*);
template GvsResult gvs_protectors<EfGraph>(const EfGraph&,
                                           std::span<const NodeId>,
                                           const GvsConfig&, ThreadPool*);

}  // namespace lcrb
