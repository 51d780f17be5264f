#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "graph/builder.h"

namespace lcrb {

// ---------------------------------------------------------------------------
// Deterministic structures.
// ---------------------------------------------------------------------------

DiGraph path_graph(NodeId n, bool undirected) {
  GraphBuilder b;
  b.reserve_nodes(n);
  for (NodeId i = 0; i + 1 < n; ++i) {
    if (undirected) {
      b.add_undirected_edge(i, i + 1);
    } else {
      b.add_edge(i, i + 1);
    }
  }
  return b.finalize();
}

DiGraph cycle_graph(NodeId n, bool undirected) {
  LCRB_REQUIRE(n >= 2, "cycle needs at least 2 nodes");
  GraphBuilder b;
  b.reserve_nodes(n);
  for (NodeId i = 0; i < n; ++i) {
    const NodeId j = (i + 1) % n;
    if (undirected) {
      b.add_undirected_edge(i, j);
    } else {
      b.add_edge(i, j);
    }
  }
  return b.finalize();
}

DiGraph star_graph(NodeId n, bool undirected) {
  LCRB_REQUIRE(n >= 1, "star needs at least 1 node");
  GraphBuilder b;
  b.reserve_nodes(n);
  for (NodeId i = 1; i < n; ++i) {
    if (undirected) {
      b.add_undirected_edge(0, i);
    } else {
      b.add_edge(0, i);
    }
  }
  return b.finalize();
}

DiGraph complete_graph(NodeId n) {
  GraphBuilder b;
  b.reserve_nodes(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u != v) b.add_edge(u, v);
    }
  }
  return b.finalize();
}

DiGraph grid_graph(NodeId rows, NodeId cols) {
  GraphBuilder b;
  b.reserve_nodes(rows * cols);
  auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      if (c + 1 < cols) b.add_undirected_edge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) b.add_undirected_edge(id(r, c), id(r + 1, c));
    }
  }
  return b.finalize();
}

// ---------------------------------------------------------------------------
// Classic random models.
// ---------------------------------------------------------------------------

DiGraph erdos_renyi(NodeId n, double p, bool directed, Rng& rng) {
  LCRB_REQUIRE(p >= 0.0 && p <= 1.0, "edge probability must be in [0,1]");
  GraphBuilder b;
  b.reserve_nodes(n);
  if (p <= 0.0 || n < 2) return b.finalize();

  // Geometric skipping over the flattened pair index space.
  const double log1mp = std::log1p(-p);
  const auto total = directed
                         ? static_cast<std::uint64_t>(n) * (n - 1)
                         : static_cast<std::uint64_t>(n) * (n - 1) / 2;
  std::uint64_t idx = 0;
  bool first = true;
  while (true) {
    std::uint64_t skip = 0;
    if (p < 1.0) {
      const double u = rng.next_double();
      skip = static_cast<std::uint64_t>(std::floor(std::log1p(-u) / log1mp));
    }
    idx += first ? skip : skip + 1;
    first = false;
    if (idx >= total) break;
    if (directed) {
      const NodeId u = static_cast<NodeId>(idx / (n - 1));
      NodeId v = static_cast<NodeId>(idx % (n - 1));
      if (v >= u) ++v;  // skip the diagonal
      b.add_edge(u, v);
    } else {
      // Unrank pair index into (u, v), u < v.
      const double nd = static_cast<double>(n);
      auto u = static_cast<NodeId>(
          nd - 2 -
          std::floor(std::sqrt(-8.0 * static_cast<double>(idx) +
                               4.0 * nd * (nd - 1) - 7.0) /
                         2.0 -
                     0.5));
      const auto base = static_cast<std::uint64_t>(u) * (n - 1) -
                        static_cast<std::uint64_t>(u) * (u + 1) / 2;
      const NodeId v = static_cast<NodeId>(idx - base + u + 1);
      b.add_undirected_edge(u, v);
    }
  }
  return b.finalize();
}

DiGraph erdos_renyi_m(NodeId n, EdgeId m, bool directed, Rng& rng) {
  GraphBuilder b;
  b.reserve_nodes(n);
  if (n < 2) return b.finalize();
  const auto max_edges = directed
                             ? static_cast<std::uint64_t>(n) * (n - 1)
                             : static_cast<std::uint64_t>(n) * (n - 1) / 2;
  LCRB_REQUIRE(m <= max_edges, "requested more edges than the graph can hold");
  // Rejection sampling on a hash set of packed pairs; fine for sparse m.
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(m * 2);
  while (seen.size() < m) {
    NodeId u = static_cast<NodeId>(rng.next_below(n));
    NodeId v = static_cast<NodeId>(rng.next_below(n));
    if (u == v) continue;
    if (!directed && u > v) std::swap(u, v);
    const std::uint64_t key = static_cast<std::uint64_t>(u) * n + v;
    if (!seen.insert(key).second) continue;
    if (directed) {
      b.add_edge(u, v);
    } else {
      b.add_undirected_edge(u, v);
    }
  }
  return b.finalize();
}

DiGraph barabasi_albert(NodeId n, NodeId m_per_node, Rng& rng) {
  LCRB_REQUIRE(m_per_node >= 1, "BA needs m >= 1");
  LCRB_REQUIRE(n > m_per_node, "BA needs n > m");
  GraphBuilder b;
  b.reserve_nodes(n);
  // `targets` holds one entry per half-edge: sampling uniformly from it is
  // sampling proportional to degree.
  std::vector<NodeId> half_edges;
  half_edges.reserve(static_cast<std::size_t>(2) * n * m_per_node);
  // Seed clique over the first m+1 nodes.
  for (NodeId u = 0; u <= m_per_node; ++u) {
    for (NodeId v = u + 1; v <= m_per_node; ++v) {
      b.add_undirected_edge(u, v);
      half_edges.push_back(u);
      half_edges.push_back(v);
    }
  }
  std::vector<NodeId> picked;
  for (NodeId u = m_per_node + 1; u < n; ++u) {
    picked.clear();
    while (picked.size() < m_per_node) {
      const NodeId t = half_edges[rng.next_below(half_edges.size())];
      if (std::find(picked.begin(), picked.end(), t) == picked.end()) {
        picked.push_back(t);
      }
    }
    for (NodeId t : picked) {
      b.add_undirected_edge(u, t);
      half_edges.push_back(u);
      half_edges.push_back(t);
    }
  }
  return b.finalize();
}

// ---------------------------------------------------------------------------
// Community-structured generator.
// ---------------------------------------------------------------------------

namespace {

/// Weighted node sampler over a contiguous id range via cumulative sums.
class WeightedSampler {
 public:
  WeightedSampler(const std::vector<double>& weights, NodeId begin, NodeId end)
      : begin_(begin) {
    cum_.reserve(end - begin);
    double acc = 0.0;
    for (NodeId i = begin; i < end; ++i) {
      acc += weights[i];
      cum_.push_back(acc);
    }
  }

  NodeId sample(Rng& rng) const {
    const double x = rng.next_double() * cum_.back();
    const auto it = std::upper_bound(cum_.begin(), cum_.end(), x);
    const auto idx = static_cast<NodeId>(it - cum_.begin());
    return begin_ + std::min<NodeId>(idx, static_cast<NodeId>(cum_.size() - 1));
  }

  double total() const { return cum_.empty() ? 0.0 : cum_.back(); }

 private:
  NodeId begin_;
  std::vector<double> cum_;
};

}  // namespace

CommunityGraph make_community_graph(const CommunityGraphConfig& cfg) {
  LCRB_REQUIRE(!cfg.community_sizes.empty(), "need at least one community");
  LCRB_REQUIRE(cfg.avg_intra_degree >= 0 && cfg.avg_inter_degree >= 0,
               "degrees must be non-negative");
  NodeId n = 0;
  for (NodeId s : cfg.community_sizes) {
    LCRB_REQUIRE(s >= 1, "community sizes must be positive");
    n += s;
  }

  Rng rng(cfg.seed);
  CommunityGraph out;
  out.num_communities = static_cast<NodeId>(cfg.community_sizes.size());
  out.membership.resize(n);

  // Nodes are laid out community-by-community; record boundaries.
  std::vector<NodeId> begin(cfg.community_sizes.size() + 1, 0);
  for (std::size_t c = 0; c < cfg.community_sizes.size(); ++c) {
    begin[c + 1] = begin[c] + cfg.community_sizes[c];
    for (NodeId v = begin[c]; v < begin[c + 1]; ++v) {
      out.membership[v] = static_cast<CommunityId>(c);
    }
  }

  // Degree-correction weights: Pareto(alpha-1) tail, or uniform.
  std::vector<double> w(n, 1.0);
  if (cfg.degree_exponent > 1.0) {
    const double inv = 1.0 / (cfg.degree_exponent - 1.0);
    for (NodeId v = 0; v < n; ++v) {
      const double u = rng.next_double();
      w[v] = std::min(std::pow(1.0 - u, -inv), 50.0);  // cap extreme hubs
    }
  }

  GraphBuilder b;
  b.reserve_nodes(n);
  const double arcs_per_edge = cfg.symmetric ? 2.0 : 1.0;

  // Track distinct pairs so weighted-sampling collisions don't erode the
  // degree targets (heavy hubs collide often).
  std::unordered_set<std::uint64_t> seen;
  auto try_add = [&](NodeId u, NodeId v) {
    if (u == v) return false;
    if (cfg.symmetric && u > v) std::swap(u, v);
    const std::uint64_t key = static_cast<std::uint64_t>(u) * n + v;
    if (!seen.insert(key).second) return false;
    if (cfg.symmetric) {
      b.add_undirected_edge(u, v);
    } else {
      b.add_edge(u, v);
    }
    return true;
  };

  // Intra-community edges: draw until the per-community quota of *distinct*
  // pairs is met (attempt cap guards tiny dense communities).
  for (std::size_t c = 0; c < cfg.community_sizes.size(); ++c) {
    const NodeId size = cfg.community_sizes[c];
    if (size < 2) continue;
    WeightedSampler sampler(w, begin[c], begin[c + 1]);
    const auto max_pairs = static_cast<std::uint64_t>(size) * (size - 1) /
                           (cfg.symmetric ? 2 : 1);
    auto target = static_cast<std::uint64_t>(
        std::llround(cfg.avg_intra_degree * size / arcs_per_edge));
    target = std::min(target, max_pairs * 8 / 10);
    std::uint64_t added = 0;
    for (std::uint64_t attempts = 0; added < target && attempts < 30 * target;
         ++attempts) {
      added += try_add(sampler.sample(rng), sampler.sample(rng));
    }
  }

  // Inter-community edges: sample endpoints globally, reject same community.
  if (cfg.community_sizes.size() > 1 && cfg.avg_inter_degree > 0) {
    WeightedSampler global(w, 0, n);
    const auto target = static_cast<std::uint64_t>(
        std::llround(cfg.avg_inter_degree * n / arcs_per_edge));
    std::uint64_t added = 0;
    for (std::uint64_t attempts = 0; added < target && attempts < 30 * target;
         ++attempts) {
      const NodeId u = global.sample(rng);
      const NodeId v = global.sample(rng);
      if (out.membership[u] == out.membership[v]) continue;
      added += try_add(u, v);
    }
  }

  out.graph = b.finalize();
  return out;
}

std::vector<NodeId> power_law_sizes(NodeId total, NodeId min_size,
                                    NodeId max_size, double exponent,
                                    Rng& rng) {
  LCRB_REQUIRE(min_size >= 1 && max_size >= min_size, "bad size bounds");
  LCRB_REQUIRE(total >= min_size, "total smaller than min community size");
  std::vector<NodeId> sizes;
  NodeId used = 0;
  const double lo = std::pow(static_cast<double>(min_size), 1.0 - exponent);
  const double hi = std::pow(static_cast<double>(max_size), 1.0 - exponent);
  while (used < total) {
    // Inverse-CDF sample of a bounded power law.
    const double u = rng.next_double();
    const double x = std::pow(lo + u * (hi - lo), 1.0 / (1.0 - exponent));
    auto s = static_cast<NodeId>(std::llround(x));
    s = std::clamp(s, min_size, max_size);
    if (used + s > total) s = total - used;
    if (s < min_size && !sizes.empty()) {
      // Fold a too-small remainder into the previous community.
      sizes.back() += s;
      used += s;
      break;
    }
    sizes.push_back(s);
    used += s;
  }
  return sizes;
}

// ---------------------------------------------------------------------------
// Dataset substitutes.
// ---------------------------------------------------------------------------

namespace {

/// Scales a size, keeping at least `min_v`.
NodeId scaled(double scale, NodeId v, NodeId min_v = 2) {
  return std::max<NodeId>(min_v, static_cast<NodeId>(std::llround(scale * v)));
}

}  // namespace

DatasetSubstitute make_hep_like(std::uint64_t seed, double scale) {
  LCRB_REQUIRE(scale > 0.0 && scale <= 1.0, "scale must be in (0,1]");
  Rng rng(seed ^ 0x48455000);  // "HEP"
  const NodeId total = scaled(scale, 15233, 64);
  const NodeId planted = scaled(scale, 308, 12);

  std::vector<NodeId> sizes{planted};
  auto rest = power_law_sizes(total - planted, std::max<NodeId>(8, scaled(scale, 10, 4)),
                              std::max<NodeId>(16, scaled(scale, 600, 16)), 2.0, rng);
  sizes.insert(sizes.end(), rest.begin(), rest.end());

  CommunityGraphConfig cfg;
  cfg.community_sizes = sizes;
  // Collaboration network: avg total degree 7.73, sparse across communities.
  cfg.avg_intra_degree = 6.4;
  cfg.avg_inter_degree = 1.3;
  cfg.degree_exponent = 2.7;
  cfg.symmetric = true;
  cfg.seed = seed;

  DatasetSubstitute out;
  out.net = make_community_graph(cfg);
  out.planted_medium = 0;  // community 0 is the planted ~308-node one
  return out;
}

DatasetSubstitute make_enron_like(std::uint64_t seed, double scale) {
  LCRB_REQUIRE(scale > 0.0 && scale <= 1.0, "scale must be in (0,1]");
  Rng rng(seed ^ 0x454e524fULL);  // "ENRO"
  const NodeId total = scaled(scale, 36692, 128);
  const NodeId small = scaled(scale, 80, 8);
  const NodeId large = scaled(scale, 2631, 32);

  std::vector<NodeId> sizes{small, large};
  auto rest = power_law_sizes(total - small - large,
                              std::max<NodeId>(8, scaled(scale, 20, 4)),
                              std::max<NodeId>(16, scaled(scale, 2000, 16)),
                              1.9, rng);
  sizes.insert(sizes.end(), rest.begin(), rest.end());

  CommunityGraphConfig cfg;
  cfg.community_sizes = sizes;
  // Email network: avg out-degree 10.0, directed, hubby.
  cfg.avg_intra_degree = 8.5;
  cfg.avg_inter_degree = 1.5;
  cfg.degree_exponent = 2.3;
  cfg.symmetric = false;
  cfg.seed = seed;

  DatasetSubstitute out;
  out.net = make_community_graph(cfg);
  out.planted_small = 0;   // ~80-node community
  out.planted_medium = 1;  // ~2631-node community
  return out;
}

}  // namespace lcrb
