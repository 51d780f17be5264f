// Set Cover Based Greedy (SCBG) — the paper's Algorithm 3 for LCRB-D.
//
// Pipeline: RFST -> bridge ends B -> one BBST per bridge end -> greedy set
// cover -> protector seed set W. Under DOAM a bridge end's BBST is its
// reverse-reachable set (v saves b iff dist(v, b) <= d_R(b)), so the BBSTs
// are drawn by the RIS reverse sampler into one CSR pool whose inverted
// index is the SW map (doam_bridge_end_pool), and the cover is RIS's
// coverage greedy run to completion. The output provably protects every
// bridge end under DOAM (each bridge end is in its own BBST, so a complete
// cover always exists), within H(max |SW|) of the optimum.
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

/// Runs SCBG over precomputed bridge ends (find_bridge_ends). The BBSTs are
/// drawn in parallel on `pool` when given; the result is identical at any
/// thread count. The cover is always re-checked with a DOAM protection test
/// (the paper's central claim), and a violation throws lcrb::Error.
template <GraphView G>
ScbgResult scbg_from_bridges(const G& g, std::span<const NodeId> rumors,
                             const BridgeEndResult& bridges,
                             ThreadPool* pool = nullptr);

}  // namespace lcrb
