#include "lcrb/gvs.h"

#include "graph/ef_graph.h"
#include "graph/graph.h"

#include <algorithm>
#include <queue>

#include "util/error.h"
#include "util/reduce.h"
#include "util/rng.h"

namespace lcrb {

namespace {

/// Expected infected count over fixed sample seeds (common random numbers).
template <class G>
class InfectionEstimator {
 public:
  InfectionEstimator(const G& g, std::vector<NodeId> rumors,
                     const GvsConfig& cfg, ThreadPool* pool)
      : g_(g), rumors_(std::move(rumors)), cfg_(cfg), pool_(pool) {
    Rng master(cfg_.seed);
    seeds_.resize(cfg_.samples);
    for (std::size_t i = 0; i < cfg_.samples; ++i) {
      seeds_[i] = master.fork(i).next();
    }
  }

  double expected_infected(std::span<const NodeId> protectors) const {
    const RealizationParams params{cfg_.max_hops, cfg_.ic_edge_prob};
    double total = 0.0;
    auto eval = [&](std::size_t i) {
      SeedSets s;
      s.rumors = rumors_;
      s.protectors.assign(protectors.begin(), protectors.end());
      return static_cast<double>(
          simulate(g_, s, seeds_[i], cfg_.model, params).infected_count());
    };
    if (pool_ != nullptr && cfg_.samples > 1) {
      // Slot-then-serial-reduce: a mutex-guarded `total += v` would be
      // race-free but would still sum in scheduling order, breaking the
      // bit-identical-across-thread-counts contract.
      total = parallel_fixed_order_sum<double>(*pool_, cfg_.samples, eval);
    } else {
      for (std::size_t i = 0; i < cfg_.samples; ++i) total += eval(i);
    }
    return total / static_cast<double>(cfg_.samples);
  }

 private:
  const G& g_;
  std::vector<NodeId> rumors_;
  GvsConfig cfg_;
  ThreadPool* pool_;
  std::vector<std::uint64_t> seeds_;
};

}  // namespace

template <GraphView G>
GvsResult gvs_protectors(const G& g, std::span<const NodeId> rumors,
                         const GvsConfig& cfg, ThreadPool* pool) {
  LCRB_REQUIRE(cfg.budget >= 1, "GVS needs a positive budget");
  LCRB_REQUIRE(cfg.samples >= 1, "GVS needs at least one sample");
  LCRB_REQUIRE(!rumors.empty(), "GVS needs rumor originators");

  const InfectionEstimator<G> est(g, {rumors.begin(), rumors.end()}, cfg,
                                  pool);

  // Candidates: non-rumor nodes, optionally capped by out-degree rank (high
  // influence first — the GVS paper's own "highly influential nodes").
  std::vector<bool> is_rumor(g.num_nodes(), false);
  for (NodeId r : rumors) {
    LCRB_REQUIRE(r < g.num_nodes(), "rumor out of range");
    is_rumor[r] = true;
  }
  std::vector<NodeId> candidates;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!is_rumor[v]) candidates.push_back(v);
  }
  if (cfg.max_candidates > 0 && candidates.size() > cfg.max_candidates) {
    std::stable_sort(candidates.begin(), candidates.end(),
                     [&g](NodeId a, NodeId b) {
                       return g.out_degree(a) > g.out_degree(b);
                     });
    candidates.resize(cfg.max_candidates);
  }

  GvsResult out;
  out.baseline_infected = est.expected_infected({});
  double current = out.baseline_infected;
  std::vector<NodeId> chosen;

  struct Entry {
    double reduction;
    NodeId node;
    std::size_t round;
    bool operator<(const Entry& o) const { return reduction < o.reduction; }
  };
  std::priority_queue<Entry> heap;

  // Round-0 reductions in parallel across candidates.
  {
    std::vector<double> red(candidates.size());
    auto eval = [&](std::size_t i) {
      const NodeId v[] = {candidates[i]};
      red[i] = current - est.expected_infected(v);
    };
    if (pool != nullptr && candidates.size() > 1) {
      pool->parallel_for(candidates.size(), eval);
    } else {
      for (std::size_t i = 0; i < candidates.size(); ++i) eval(i);
    }
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      heap.push({red[i], candidates[i], 0});
    }
  }

  while (chosen.size() < cfg.budget && !heap.empty()) {
    Entry top = heap.top();
    heap.pop();
    if (top.round != chosen.size()) {
      std::vector<NodeId> trial = chosen;
      trial.push_back(top.node);
      top.reduction = current - est.expected_infected(trial);
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
