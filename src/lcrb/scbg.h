// Set Cover Based Greedy (SCBG) — the paper's Algorithm 3 for LCRB-D.
//
// Pipeline: RFST -> bridge ends B -> one BBST per bridge end -> greedy set
// cover -> protector seed set W. Under DOAM a bridge end's BBST is every
// node that saves it (v saves b iff dist(v, b) <= d_R(b)), so all BBSTs are
// swept at once into a block-sparse bit matrix, one bit per (node, bridge
// end), whose rows are the SW sets (build_bbst_matrix, lcrb/bbst_matrix.h),
// and the cover is the lazy max-coverage greedy over those rows run to
// completion. The output provably protects every bridge end under DOAM
// (each bridge end is in its own BBST, so a complete cover always exists),
// within H(max |SW|) of the optimum.
#pragma once

#include <span>
#include <vector>

#include "graph/graph_view.h"
#include "lcrb/bridge.h"
#include "util/threadpool.h"
#include "util/types.h"

namespace lcrb {

struct ScbgResult {
  std::vector<NodeId> protectors;   ///< W, in pick order
  std::vector<NodeId> bridge_ends;  ///< B
  std::size_t covered = 0;          ///< bridge ends covered (== |B|)
  std::size_t candidate_count = 0;  ///< |union of BBSTs| (set-cover width)
};

/// Runs SCBG over precomputed bridge ends (find_bridge_ends). The BBST
/// matrix is swept in parallel on `pool` when given; the result is identical
/// at any thread count. The cover is always re-checked with a DOAM protection test
/// (the paper's central claim), and a violation throws lcrb::Error.
template <GraphView G>
ScbgResult scbg_from_bridges(const G& g, std::span<const NodeId> rumors,
                             const BridgeEndResult& bridges,
                             ThreadPool* pool = nullptr);

}  // namespace lcrb
