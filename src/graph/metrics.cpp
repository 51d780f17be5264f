#include "graph/metrics.h"

#include <algorithm>
#include <sstream>

#include "graph/ef_graph.h"
#include "graph/graph.h"

namespace lcrb {

namespace {

/// Linear-interpolated percentile of an ascending, non-empty sequence,
/// p in [0,100].
double sorted_percentile(const std::vector<NodeId>& xs, double p) {
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= xs.size()) return xs.back();
  return xs[lo] * (1.0 - frac) + xs[lo + 1] * frac;
}

}  // namespace

template <GraphView G>
DegreeStats degree_stats(const G& g) {
  DegreeStats s;
  const NodeId n = g.num_nodes();
  if (n == 0) return s;
  std::vector<NodeId> outs;
  outs.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    const NodeId dout = g.out_degree(v);
    const NodeId din = g.in_degree(v);
    outs.push_back(dout);
    s.max_out = std::max(s.max_out, dout);
    s.max_in = std::max(s.max_in, din);
    if (dout == 0 && din == 0) ++s.isolated;
  }
  s.avg_out = static_cast<double>(g.num_edges()) / static_cast<double>(n);
  std::sort(outs.begin(), outs.end());
  s.p50_out = sorted_percentile(outs, 50.0);
  s.p90_out = sorted_percentile(outs, 90.0);
  s.p99_out = sorted_percentile(outs, 99.0);
  return s;
}

template <GraphView G>
ComponentResult weakly_connected_components(const G& g) {
  ComponentResult r;
  const NodeId n = g.num_nodes();
  r.labels.assign(n, kInvalidNode);
  std::vector<NodeId> stack;
  for (NodeId root = 0; root < n; ++root) {
    if (r.labels[root] != kInvalidNode) continue;
    const NodeId label = r.count++;
    NodeId size = 0;
    stack.push_back(root);
    r.labels[root] = label;
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      ++size;
      auto visit = [&](NodeId w) {
        if (r.labels[w] == kInvalidNode) {
          r.labels[w] = label;
          stack.push_back(w);
        }
      };
      for (NodeId w : g.out_neighbors(u)) visit(w);
      for (NodeId w : g.in_neighbors(u)) visit(w);
    }
    r.largest_size = std::max(r.largest_size, size);
  }
  return r;
}

template <GraphView G>
double reciprocity(const G& g) {
  if (g.num_edges() == 0) return 0.0;
  EdgeId mutual = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.out_neighbors(u)) {
      if (g.has_edge(v, u)) ++mutual;
    }
  }
  return static_cast<double>(mutual) / static_cast<double>(g.num_edges());
}

template <GraphView G>
std::string describe(const G& g) {
  const DegreeStats d = degree_stats(g);
  const ComponentResult c = weakly_connected_components(g);
  std::ostringstream os;
  os << "n=" << g.num_nodes() << " arcs=" << g.num_edges()
     << " avg_out_deg=" << d.avg_out << " max_out=" << d.max_out
     << " wcc=" << c.count << " largest_wcc=" << c.largest_size;
  return os.str();
}

#define LCRB_INSTANTIATE_METRICS(G)                       \
  template DegreeStats degree_stats<G>(const G&);         \
  template ComponentResult weakly_connected_components<G>(const G&); \
  template double reciprocity<G>(const G&);               \
  template std::string describe<G>(const G&);

LCRB_INSTANTIATE_METRICS(DiGraph)
LCRB_INSTANTIATE_METRICS(EfGraph)

#undef LCRB_INSTANTIATE_METRICS

}  // namespace lcrb
