// Reference OPOAO run (paper §III-A) with its pick log — the executable form
// of the paper's timestamp assignment (§V-A, Fig. 1): the pick at step t by
// a node of cascade c stamps its edge "t_c".
//
// A plain loop over opoao_pick_hash: every active node with out-edges picks
// at every step, picks are logged in the kernel's order (cascades in the
// plan's priority order, each cascade's nodes in activation order), and the
// run stops when a brute-force scan finds no active node with an inactive
// out-neighbour. OpoaoTraits::Forward keeps incremental counts for its stop
// and retires saturated pickers; this loop does neither, so a production
// run that equals it pins both shortcuts.
#pragma once

#include <cstdint>
#include <vector>

#include "diffusion/kernel.h"
#include "diffusion/opoao.h"

namespace lcrb::reference {

/// One activation attempt: active node `from` picked out-neighbour `to` at
/// `step`; `activated` records whether the pick claimed the target.
struct OpoaoPick {
  std::uint32_t step;
  NodeId from;
  NodeId to;
  NodeState cascade;  ///< color of the picking node
  bool activated;     ///< target was inactive and adopted `cascade`
};

struct OpoaoRun {
  DiffusionResult result;
  std::vector<OpoaoPick> picks;  ///< in execution order
};

/// Field-by-field equality of two runs' outcomes.
inline bool same_outcome(const DiffusionResult& a, const DiffusionResult& b) {
  return a.state == b.state && a.activation_step == b.activation_step &&
         a.newly_infected == b.newly_infected &&
         a.newly_protected == b.newly_protected && a.steps == b.steps &&
         a.cascade == b.cascade && a.newly_by_cascade == b.newly_by_cascade;
}

/// True when some active node still has an inactive out-neighbour.
template <class G>
bool opoao_can_claim(const G& g, const std::vector<NodeState>& state) {
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (state[u] == NodeState::kInactive) continue;
    for (NodeId v : g.out_neighbors(u)) {
      if (state[v] == NodeState::kInactive) return true;
    }
  }
  return false;
}

/// run_cascade<OpoaoTraits>(g, seeds, seed, {.max_hops = max_hops}), the
/// slow way, plus every pick it makes.
template <class G>
OpoaoRun opoao_reference(const G& g, const SeedSets& seeds,
                         std::uint64_t seed, std::uint32_t max_hops) {
  validate_seeds(g, seeds);
  const CascadePlan plan(seeds);
  const NodeId n = g.num_nodes();
  OpoaoRun out;
  DiffusionResult& r = out.result;
  r.state.assign(n, NodeState::kInactive);
  r.activation_step.assign(n, kUnreached);
  r.cascade.assign(n, kNoCascade);
  r.newly_by_cascade.assign(plan.size(), {});

  // active[k]: the nodes cascade k won, in activation order.
  std::vector<std::vector<NodeId>> active(plan.size());
  auto win = [&](NodeId v, std::uint8_t k, std::uint32_t step) {
    r.state[v] = plan.state_of(k);
    r.cascade[v] = k;
    r.activation_step[v] = step;
  };
  // Closes a step: its winners join their pools and the series.
  auto record = [&](std::uint32_t step,
                    const std::vector<std::vector<NodeId>>& won) {
    std::uint32_t p = 0, i = 0;
    for (std::size_t j = 0; j < plan.size(); ++j) {
      const std::uint8_t k = plan.cascade_at(step, j);
      active[k].insert(active[k].end(), won[k].begin(), won[k].end());
      const auto cnt = static_cast<std::uint32_t>(won[k].size());
      r.newly_by_cascade[k].push_back(cnt);
      (plan.role(k) == CascadeRole::kProtector ? p : i) += cnt;
    }
    r.newly_protected.push_back(p);
    r.newly_infected.push_back(i);
    if (step > 0 && p + i > 0) r.steps = step;
  };

  std::vector<std::vector<NodeId>> won(plan.size());
  for (std::size_t j = 0; j < plan.size(); ++j) {
    const std::uint8_t k = plan.cascade_at(0, j);
    for (NodeId v : plan.seeds_of(k)) {
      win(v, k, 0);
      won[k].push_back(v);
    }
  }
  record(0, won);

  for (std::uint32_t step = 1;
       step <= max_hops && opoao_can_claim(g, r.state); ++step) {
    for (auto& list : won) list.clear();
    // Picks read the state as it stands, so a node claimed earlier in the
    // step is taken; the pools grow only once the step is over.
    for (std::size_t j = 0; j < plan.size(); ++j) {
      const std::uint8_t k = plan.cascade_at(step, j);
      for (NodeId u : active[k]) {
        const auto row = g.out_neighbors(u);
        if (row.empty()) continue;
        const NodeId to = row[opoao_pick_hash(seed, u, step) % row.size()];
        const bool claimed = r.state[to] == NodeState::kInactive;
        if (claimed) {
          win(to, k, step);
          won[k].push_back(to);
        }
        out.picks.push_back({step, u, to, plan.state_of(k), claimed});
      }
    }
    record(step, won);
  }
  return out;
}

}  // namespace lcrb::reference
