#include "lcrb/scbg.h"

#include "graph/ef_graph.h"
#include "graph/graph.h"

#include "diffusion/doam.h"
#include "lcrb/bbst_matrix.h"
#include "util/error.h"

namespace lcrb {

template <GraphView G>
ScbgResult scbg_from_bridges(const G& g, std::span<const NodeId> rumors,
                             const BridgeEndResult& bridges,
                             ThreadPool* pool) {
  ScbgResult out;
  out.bridge_ends = bridges.bridge_ends;
  if (out.bridge_ends.empty()) return out;

  CoverageGreedyOutcome cover = cover_bbst_matrix(
      build_bbst_matrix(g, rumors, bridges, pool), g.num_nodes());
  out.candidate_count = cover.candidates;
  out.covered = cover.covered;
  // Every bridge end sits in its own BBST (N^0(v) = v), so a complete cover
  // always exists; failure indicates a bug, not an infeasible instance.
  LCRB_REQUIRE(out.covered == out.bridge_ends.size(),
               "SCBG: set cover unexpectedly incomplete");
  out.protectors = std::move(cover.picks);

  SeedSets seeds;
  seeds.rumors.assign(rumors.begin(), rumors.end());
  seeds.protectors = out.protectors;
  const std::vector<bool> saved = doam_saved(g, seeds, out.bridge_ends);
  for (std::size_t i = 0; i < saved.size(); ++i) {
    LCRB_REQUIRE(saved[i], "SCBG verification failed: bridge end " +
                               std::to_string(out.bridge_ends[i]) +
                               " still infected under DOAM");
  }
  return out;
}

#define LCRB_INSTANTIATE_SCBG(G)                                              \
  template ScbgResult scbg_from_bridges<G>(const G&,                          \
                                           std::span<const NodeId>,           \
                                           const BridgeEndResult&,            \
                                           ThreadPool*);

LCRB_INSTANTIATE_SCBG(DiGraph)
LCRB_INSTANTIATE_SCBG(EfGraph)

#undef LCRB_INSTANTIATE_SCBG

}  // namespace lcrb
