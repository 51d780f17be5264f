#include "diffusion/doam.h"

#include "graph/ef_graph.h"
#include "graph/graph.h"

#include "graph/traversal.h"
#include "util/error.h"

namespace lcrb {

template <GraphView G>
std::vector<bool> doam_saved(const G& g, const SeedSets& seeds,
                             std::span<const NodeId> targets) {
  validate_seeds(g, seeds);
  const BfsResult from_p = bfs_forward(g, seeds.protectors);
  const BfsResult from_r = bfs_forward(g, seeds.rumors);
  std::vector<bool> saved(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const NodeId v = targets[i];
    LCRB_REQUIRE(v < g.num_nodes(), "target out of range");
    // Unreached == kUnreached == +inf; P wins ties.
    saved[i] = from_p.dist[v] <= from_r.dist[v];
  }
  return saved;
}

template std::vector<bool> doam_saved<DiGraph>(const DiGraph&,
                                               const SeedSets&,
                                               std::span<const NodeId>);
template std::vector<bool> doam_saved<EfGraph>(const EfGraph&,
                                               const SeedSets&,
                                               std::span<const NodeId>);

}  // namespace lcrb
