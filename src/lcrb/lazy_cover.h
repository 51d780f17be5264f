// The lazy max-coverage greedy core shared by the RR-pool coverage greedy
// (coverage_greedy, lcrb/ris.h) and SCBG's bridge-end matrix cover
// (cover_bbst_matrix, lcrb/bbst_matrix.h). Each caller owns its element
// layout; the core owns the pick order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "lcrb/ris.h"
#include "util/types.h"

namespace lcrb {

/// CELF-style lazy argmax: cnt[] holds every node's EXACT residual coverage
/// (maintained by the caller's decrements when a pick's elements are
/// covered), and the heap holds stale upper bounds of it. A popped entry
/// whose bound is stale is reinserted at the current count; a fresh top is
/// the exact argmax, because counts only decrease and every other heap bound
/// dominates its node's count. The heap key breaks count ties toward the
/// LOWEST node id, so a pick is always the exact lowest-id argmax (the pick
/// sequence of a linear scan).
///
/// out.candidates is the number of nodes with a nonzero count at the start.
/// While more() holds and `max_picks` (0 = unlimited) allows, the best node
/// v is appended to out.picks with its count in out.gains, then cover(v)
/// must mark v's uncovered elements covered, add them to out.covered, and
/// decrement cnt[] of every node holding one of them (counting each
/// decrement in out.ops). Stops early once no node covers anything.
template <class More, class Cover>
void lazy_greedy_cover(std::vector<std::uint32_t>& cnt, std::size_t max_picks,
                       More more, Cover cover, CoverageGreedyOutcome& out) {
  // Max-heap of packed keys, the count in the high half and the complemented
  // node id in the low half: a larger count wins, a lower id wins ties.
  const auto key = [](std::uint32_t count, NodeId v) {
    return (std::uint64_t{count} << 32) | static_cast<NodeId>(~v);
  };
  std::vector<std::uint64_t> heap;
  for (NodeId v = 0; v < cnt.size(); ++v) {
    if (cnt[v] > 0) heap.push_back(key(cnt[v], v));
  }
  std::make_heap(heap.begin(), heap.end());
  out.candidates = heap.size();
  while (more() && (max_picks == 0 || out.picks.size() < max_picks)) {
    NodeId best = kInvalidNode;
    std::uint32_t best_cnt = 0;
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end());
      const auto bound = static_cast<std::uint32_t>(heap.back() >> 32);
      const auto v = static_cast<NodeId>(~static_cast<NodeId>(heap.back()));
      heap.pop_back();
      if (cnt[v] == 0) continue;  // fully covered since; drop for good
      if (bound != cnt[v]) {      // stale bound: requeue at the exact count
        heap.push_back(key(cnt[v], v));
        std::push_heap(heap.begin(), heap.end());
        continue;
      }
      best = v;
      best_cnt = bound;
      break;
    }
    if (best == kInvalidNode) break;  // every remaining element is uncoverable
    out.picks.push_back(best);
    out.gains.push_back(best_cnt);
    cover(best);
  }
}

}  // namespace lcrb
