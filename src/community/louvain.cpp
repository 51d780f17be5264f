#include "community/louvain.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "graph/ef_graph.h"
#include "graph/graph.h"
#include "util/error.h"
#include "util/rng.h"

// Determinism-critical (gated by tools/lcrb_analyze D1-D4): community ids
// feed bridge-end computation and therefore every downstream sigma value, so
// all accumulation below runs over sorted or insertion-ordered containers —
// no unordered_map/unordered_set iteration, no scheduling-dependent floating
// point sums. Weights, self weights and degrees are integers (arc counts and
// their sums, below 2^53), so each gain is one exact double in any sum order.

namespace lcrb {

namespace {

/// Undirected weighted graph for one aggregation level, as flat CSR rows:
/// each undirected edge appears in both endpoints' rows, and every row lists
/// its neighbours in ascending order (the tie-break order of local_move).
struct LevelGraph {
  std::vector<EdgeId> offsets{0};  // row v is [offsets[v], offsets[v + 1])
  std::vector<NodeId> nbrs;
  std::vector<std::uint32_t> w;
  std::vector<std::uint64_t> self_w;  // 2x the internal weight of a node
  std::vector<double> k;              // degree: self_w plus the row's weights
  double two_m = 0.0;                 // sum over all degrees
  std::uint64_t row_w = 0;            // weight pushed to the open row

  NodeId size() const { return static_cast<NodeId>(k.size()); }

  void push(NodeId v, std::uint32_t weight) {
    nbrs.push_back(v);
    w.push_back(weight);
    row_w += weight;
  }
  /// Closes the next node's row; its degree is computed here, once.
  void end_row(std::uint64_t self) {
    offsets.push_back(nbrs.size());
    self_w.push_back(self);
    k.push_back(static_cast<double>(self + row_w));
    two_m += k.back();
    row_w = 0;
  }
};

template <class G>
LevelGraph from_digraph(const G& g) {
  // A weight, or a row's total, never exceeds the arc count: it fits 32 bits.
  LCRB_REQUIRE(g.num_edges() >> 32 == 0, "louvain: 2^32 arcs or more");
  LevelGraph lg;
  lg.nbrs.reserve(g.num_edges());
  lg.w.reserve(g.num_edges());
  // Merge (u,v) and (v,u) arcs into one undirected weight. Both neighbor
  // lists are sorted, so a two-pointer sweep accumulates each distinct
  // neighbor's weight in ascending order. Self-loops (v == u) are skipped.
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto outs = g.out_neighbors(u);
    const auto ins = g.in_neighbors(u);
    for (std::size_t i = 0, j = 0; i < outs.size() || j < ins.size();) {
      const NodeId v =
          j >= ins.size() || (i < outs.size() && outs[i] <= ins[j]) ? outs[i]
                                                                    : ins[j];
      std::uint32_t w = 0;
      for (; i < outs.size() && outs[i] == v; ++i) ++w;
      for (; j < ins.size() && ins[j] == v; ++j) ++w;
      if (v != u) lg.push(v, w);
    }
    lg.end_row(0);
  }
  return lg;
}

/// One level of local moving from singletons. Writes the node -> community
/// assignment to `comm` and returns whether any move happened.
bool local_move(const LevelGraph& lg, std::vector<CommunityId>& comm,
                const LouvainConfig& cfg, Rng& rng) {
  const NodeId n = lg.size();
  const std::vector<double>& k = lg.k;
  comm.resize(n);
  std::iota(comm.begin(), comm.end(), 0);
  std::vector<double> sigma_tot(k);

  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  // Fisher-Yates shuffle for visit order.
  for (NodeId i = n; i > 1; --i)
    std::swap(order[i - 1], order[rng.next_below(i)]);

  bool any_move = false;
  std::vector<std::uint32_t> w_to_comm(n, 0);
  std::vector<CommunityId> touched(n);  // first-appearance order

  for (int sweep = 0; sweep < cfg.max_sweeps; ++sweep) {
    bool moved_this_sweep = false;
    for (NodeId i = 0; i < n; ++i) {
      const NodeId v = order[i];
      if (n - i > 8) {  // visits are in random order: fetch rows ahead
        __builtin_prefetch(&lg.offsets[order[i + 8]]);
        __builtin_prefetch(lg.nbrs.data() + lg.offsets[order[i + 4]]);
        __builtin_prefetch(lg.w.data() + lg.offsets[order[i + 4]]);
      }
      const CommunityId old_c = comm[v];
      // Weights from v to each adjacent community. Weights are >= 1, so c
      // is new iff its total is still 0: always write, advance only then.
      std::size_t num_touched = 0;
      for (EdgeId e = lg.offsets[v]; e < lg.offsets[v + 1]; ++e) {
        const CommunityId c = comm[lg.nbrs[e]];
        touched[num_touched] = c;
        num_touched += static_cast<std::size_t>(w_to_comm[c] == 0);
        w_to_comm[c] += lg.w[e];
      }
      sigma_tot[old_c] -= k[v];  // take v out of its community

      // Best target: maximize k_in(v,c) - sigma_tot[c] * k_v / 2m.
      CommunityId best_c = old_c;
      double best_gain = static_cast<double>(w_to_comm[old_c]) -
                         sigma_tot[old_c] * k[v] / lg.two_m;
      for (std::size_t t = 0; t < num_touched; ++t) {
        const CommunityId c = touched[t];
        if (c == old_c) continue;
        const double gain = static_cast<double>(w_to_comm[c]) -
                            sigma_tot[c] * k[v] / lg.two_m;
        if (gain > best_gain + cfg.min_gain) {
          best_gain = gain;
          best_c = c;
        }
      }

      sigma_tot[best_c] += k[v];
      if (best_c != old_c) moved_this_sweep = true;
      comm[v] = best_c;
      for (std::size_t t = 0; t < num_touched; ++t) w_to_comm[touched[t]] = 0;
    }
    if (!moved_this_sweep) break;
    any_move = true;
  }
  return any_move;
}

/// Aggregates communities into super-nodes, relabelling `comm` in place to
/// dense super-node ids.
LevelGraph aggregate(const LevelGraph& lg, std::vector<CommunityId>& comm) {
  // Densify community labels in first-appearance order. Labels at this level
  // are node ids of the level graph, so a flat remap array suffices.
  std::vector<CommunityId> remap(lg.size(), kInvalidCommunity);
  CommunityId num_super = 0;
  for (CommunityId& c : comm) {
    if (remap[c] == kInvalidCommunity) remap[c] = num_super++;
    c = remap[c];
  }

  // Counting sort of nodes by dense label: members of c in ascending id.
  std::vector<NodeId> first(std::size_t{num_super} + 1, 0);
  for (NodeId v = 0; v < lg.size(); ++v) ++first[comm[v] + 1];
  std::partial_sum(first.begin(), first.end(), first.begin());
  std::vector<NodeId> members(lg.size()), cursor(first.begin(), first.end() - 1);
  for (NodeId v = 0; v < lg.size(); ++v) members[cursor[comm[v]]++] = v;

  // Fold each super-node's cross-community weights in a dense accumulator;
  // its touched targets, sorted, give the row in ascending target order.
  LevelGraph out;
  std::vector<std::uint32_t> acc(num_super, 0);
  std::vector<CommunityId> touched;
  for (CommunityId c = 0; c < num_super; ++c) {
    touched.clear();
    std::uint64_t self = 0;
    for (NodeId i = first[c]; i < first[c + 1]; ++i) {
      const NodeId v = members[i];
      self += lg.self_w[v];
      for (EdgeId e = lg.offsets[v]; e < lg.offsets[v + 1]; ++e) {
        const CommunityId d = comm[lg.nbrs[e]];
        if (d == c) {
          self += lg.w[e];  // each internal edge is visited from both ends
        } else {
          if (acc[d] == 0) touched.push_back(d);
          acc[d] += lg.w[e];
        }
      }
    }
    std::sort(touched.begin(), touched.end());
    for (const CommunityId d : touched) {
      out.push(d, acc[d]);
      acc[d] = 0;
    }
    out.end_row(self);
  }
  return out;
}

}  // namespace

template <GraphView G>
Partition louvain(const G& g, const LouvainConfig& cfg) {
  const NodeId n = g.num_nodes();
  if (n == 0) return Partition{};

  LevelGraph lg = from_digraph(g);
  // node -> community in the original graph, updated level by level.
  std::vector<CommunityId> result(n);
  std::iota(result.begin(), result.end(), 0);

  if (lg.two_m == 0.0) return Partition(result);  // every node alone

  Rng rng(cfg.seed);
  std::vector<CommunityId> comm;
  for (int level = 0; level < cfg.max_levels; ++level) {
    const bool improved = local_move(lg, comm, cfg, rng);
    if (!improved && level > 0) break;

    LevelGraph next = aggregate(lg, comm);
    // Push this level's assignment down to original nodes.
    for (NodeId v = 0; v < n; ++v) result[v] = comm[result[v]];

    if (next.size() == lg.size()) break;  // no coarsening -> converged
    lg = std::move(next);
    if (!improved) break;
  }
  return Partition(result);
}

template Partition louvain<DiGraph>(const DiGraph&, const LouvainConfig&);
template Partition louvain<EfGraph>(const EfGraph&, const LouvainConfig&);

}  // namespace lcrb
