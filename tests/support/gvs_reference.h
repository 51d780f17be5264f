// Reference GVS for the realization-cache cross-check: the greedy viral
// stopper scored by the forward kernel. Every candidate's expected infected
// count is recomputed with one simulate() run per sample seed the estimator
// draws, summed in sample order. Counts are integers, so gvs_protectors —
// which replays the same samples from the realization cache — must agree
// with it bit for bit: same picks, same infected history.
#pragma once

#include <algorithm>
#include <cstdint>
#include <queue>
#include <span>
#include <vector>

#include "diffusion/montecarlo.h"
#include "lcrb/gvs.h"
#include "lcrb/sigma.h"
#include "support/sigma_oracle.h"

namespace lcrb::statcheck {

/// gvs_protectors for `budget` picks among at most `max_candidates`
/// candidates (0 = every non-rumor node), with samples, seed, hop cap, model
/// and IC edge probability taken from `cfg`. Serial.
template <class G>
GvsResult gvs_reference(const G& g, std::span<const NodeId> rumors,
                        std::size_t budget, std::size_t max_candidates,
                        const SigmaConfig& cfg) {
  const RealizationParams params{cfg.max_hops, cfg.ic_edge_prob};
  const std::vector<std::uint64_t> seeds = sample_seeds(cfg);
  auto expected_infected = [&](std::span<const NodeId> protectors) {
    SeedSets s;
    s.rumors.assign(rumors.begin(), rumors.end());
    s.protectors.assign(protectors.begin(), protectors.end());
    double total = 0.0;
    for (const std::uint64_t seed : seeds) {
      total += static_cast<double>(
          simulate(g, s, seed, cfg.model, params).infected_count());
    }
    return total / static_cast<double>(cfg.samples);
  };

  std::vector<bool> is_rumor(g.num_nodes(), false);
  for (NodeId r : rumors) is_rumor[r] = true;
  std::vector<NodeId> candidates;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!is_rumor[v]) candidates.push_back(v);
  }
  if (max_candidates > 0 && candidates.size() > max_candidates) {
    std::stable_sort(candidates.begin(), candidates.end(),
                     [&g](NodeId a, NodeId b) {
                       return g.out_degree(a) > g.out_degree(b);
                     });
    candidates.resize(max_candidates);
  }

  struct Entry {
    double reduction;
    NodeId node;
    std::size_t round;
    bool operator<(const Entry& o) const { return reduction < o.reduction; }
  };
  GvsResult out;
  out.baseline_infected = expected_infected({});
  double current = out.baseline_infected;
  std::priority_queue<Entry> heap;
  for (NodeId c : candidates) {
    const NodeId v[] = {c};
    heap.push({current - expected_infected(v), c, 0});
  }
  std::vector<NodeId> chosen;
  while (chosen.size() < budget && !heap.empty()) {
    Entry top = heap.top();
    heap.pop();
    if (top.round != chosen.size()) {
      std::vector<NodeId> trial = chosen;
      trial.push_back(top.node);
      top.reduction = current - expected_infected(trial);
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

}  // namespace lcrb::statcheck
