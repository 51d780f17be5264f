// Reference Louvain (Blondel et al. 2008) on a list-of-lists level graph.
//
// Each level is a vector of (neighbour, weight) lists with double weights;
// degree(v) re-sums v's list on every call, and aggregation gathers each
// super-node's cross-community pairs, stable-sorts them by target and folds
// equal targets. The library kernel (src/community/louvain.cpp) builds the
// same levels as flat CSR rows with integer weights and degrees computed
// once. Every weight is an arc count or a sum of such counts, so both
// compute the same double for every gain, visit nodes in the same order and
// draw the same RNG stream: their partitions must be equal byte for byte.
#pragma once

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "community/louvain.h"
#include "util/rng.h"

namespace lcrb::reference {

namespace louvain_detail {

struct LevelGraph {
  // adj[v] = (neighbor, weight); each undirected edge appears in both lists.
  std::vector<std::vector<std::pair<NodeId, double>>> adj;
  // Self-loop contribution to degree (2x the internal weight).
  std::vector<double> self_w;
  double two_m = 0.0;  // sum over all degrees

  NodeId size() const { return static_cast<NodeId>(adj.size()); }

  double degree(NodeId v) const {
    double k = self_w[v];
    for (const auto& [u, w] : adj[v]) k += w;
    return k;
  }
};

template <class G>
LevelGraph from_digraph(const G& g) {
  LevelGraph lg;
  lg.adj.resize(g.num_nodes());
  lg.self_w.assign(g.num_nodes(), 0.0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto outs = g.out_neighbors(u);
    const auto ins = g.in_neighbors(u);
    auto& lst = lg.adj[u];
    std::size_t i = 0, j = 0;
    while (i < outs.size() || j < ins.size()) {
      NodeId v;
      if (j >= ins.size() || (i < outs.size() && outs[i] <= ins[j])) {
        v = outs[i];
      } else {
        v = ins[j];
      }
      double w = 0.0;
      while (i < outs.size() && outs[i] == v) {
        w += 1.0;
        ++i;
      }
      while (j < ins.size() && ins[j] == v) {
        w += 1.0;
        ++j;
      }
      if (v != u) lst.emplace_back(v, w);
    }
  }
  for (NodeId v = 0; v < lg.size(); ++v) lg.two_m += lg.degree(v);
  return lg;
}

inline bool local_move(const LevelGraph& lg, std::vector<CommunityId>& comm,
                       const LouvainConfig& cfg, Rng& rng) {
  const NodeId n = lg.size();
  std::vector<double> k(n);
  for (NodeId v = 0; v < n; ++v) k[v] = lg.degree(v);

  std::vector<double> sigma_tot(n, 0.0);
  for (NodeId v = 0; v < n; ++v) sigma_tot[comm[v]] += k[v];

  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (NodeId i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }

  bool any_move = false;
  std::vector<double> w_to_comm(n, 0.0);
  std::vector<CommunityId> touched;

  for (int sweep = 0; sweep < cfg.max_sweeps; ++sweep) {
    bool moved_this_sweep = false;
    for (NodeId v : order) {
      const CommunityId old_c = comm[v];
      touched.clear();
      for (const auto& [u, w] : lg.adj[v]) {
        const CommunityId c = comm[u];
        if (w_to_comm[c] == 0.0) touched.push_back(c);
        w_to_comm[c] += w;
      }
      sigma_tot[old_c] -= k[v];
      CommunityId best_c = old_c;
      double best_gain = w_to_comm[old_c] - sigma_tot[old_c] * k[v] / lg.two_m;
      for (CommunityId c : touched) {
        if (c == old_c) continue;
        const double gain = w_to_comm[c] - sigma_tot[c] * k[v] / lg.two_m;
        if (gain > best_gain + cfg.min_gain) {
          best_gain = gain;
          best_c = c;
        }
      }
      sigma_tot[best_c] += k[v];
      if (best_c != old_c) {
        comm[v] = best_c;
        moved_this_sweep = true;
        any_move = true;
      }
      for (CommunityId c : touched) w_to_comm[c] = 0.0;
      w_to_comm[old_c] = 0.0;
    }
    if (!moved_this_sweep) break;
  }
  return any_move;
}

inline LevelGraph aggregate(const LevelGraph& lg,
                            const std::vector<CommunityId>& comm,
                            std::vector<CommunityId>& dense_label) {
  dense_label.assign(lg.size(), kInvalidCommunity);
  std::vector<CommunityId> remap(lg.size(), kInvalidCommunity);
  CommunityId next_label = 0;
  for (NodeId v = 0; v < lg.size(); ++v) {
    if (remap[comm[v]] == kInvalidCommunity) remap[comm[v]] = next_label++;
    dense_label[v] = remap[comm[v]];
  }

  LevelGraph out;
  const NodeId k = next_label;
  out.adj.resize(k);
  out.self_w.assign(k, 0.0);

  std::vector<std::vector<std::pair<NodeId, double>>> acc(k);
  for (NodeId v = 0; v < lg.size(); ++v) {
    const CommunityId cv = dense_label[v];
    out.self_w[cv] += lg.self_w[v];
    for (const auto& [u, w] : lg.adj[v]) {
      const CommunityId cu = dense_label[u];
      if (cu == cv) {
        out.self_w[cv] += w;
      } else {
        acc[cv].emplace_back(cu, w);
      }
    }
  }
  for (NodeId c = 0; c < k; ++c) {
    auto& raw = acc[c];
    std::stable_sort(raw.begin(), raw.end(), [](const auto& a, const auto& b) {
      return a.first < b.first;
    });
    auto& lst = out.adj[c];
    for (std::size_t i = 0; i < raw.size();) {
      const NodeId d = raw[i].first;
      double w = 0.0;
      for (; i < raw.size() && raw[i].first == d; ++i) w += raw[i].second;
      lst.emplace_back(d, w);
    }
  }
  out.two_m = lg.two_m;
  return out;
}

}  // namespace louvain_detail

/// louvain() as the list-of-lists implementation computes it; deterministic
/// in (graph, cfg.seed).
template <class G>
Partition louvain_reference(const G& g, const LouvainConfig& cfg = {}) {
  using namespace louvain_detail;
  const NodeId n = g.num_nodes();
  if (n == 0) return Partition{};

  LevelGraph lg = from_digraph(g);
  std::vector<CommunityId> result(n);
  std::iota(result.begin(), result.end(), 0);
  if (lg.two_m == 0.0) return Partition(result);

  Rng rng(cfg.seed);
  std::vector<CommunityId> comm(n);
  std::iota(comm.begin(), comm.end(), 0);

  for (int level = 0; level < cfg.max_levels; ++level) {
    const bool improved = local_move(lg, comm, cfg, rng);
    if (!improved && level > 0) break;

    std::vector<CommunityId> dense;
    LevelGraph next = aggregate(lg, comm, dense);
    for (NodeId v = 0; v < n; ++v) result[v] = dense[result[v]];

    if (next.size() == lg.size()) break;
    lg = std::move(next);
    comm.assign(lg.size(), 0);
    std::iota(comm.begin(), comm.end(), 0);
    if (!improved) break;
  }
  return Partition(result);
}

}  // namespace lcrb::reference
