#include "diffusion/opoao.h"

#include <algorithm>

namespace lcrb {

namespace {

/// Map a cascade color to its slot in the trace index; kInactive has none.
int color_slot(NodeState color) {
  switch (color) {
    case NodeState::kProtected: return 0;
    case NodeState::kInfected: return 1;
    case NodeState::kInactive: break;
  }
  return -1;
}

}  // namespace

std::uint32_t OpoaoTrace::first_pick_step(NodeId u, NodeId v,
                                          NodeState color) const {
  const int slot = color_slot(color);
  if (slot < 0) return kUnreached;
  if (indexed_picks_ > picks.size()) {
    // The log shrank — not an append. Drop the index and start over.
    first_pick_.clear();
    indexed_picks_ = 0;
  }
  if (indexed_picks_ < picks.size()) {
    // Min-merge only the picks appended since the last query: the index is
    // a running minimum per (edge, color), so new entries can only tighten
    // it. An append-then-query loop costs O(new picks), not O(|trace|).
    first_pick_.reserve(picks.size());
    for (std::size_t k = indexed_picks_; k < picks.size(); ++k) {
      const OpoaoPick& p = picks[k];
      const std::uint64_t key =
          (static_cast<std::uint64_t>(p.from) << 32) | p.to;
      auto [it, inserted] =
          first_pick_.try_emplace(key, std::array<std::uint32_t, 2>{
                                           kUnreached, kUnreached});
      auto& steps = it->second;
      const int s = color_slot(p.cascade);
      if (s >= 0) steps[s] = std::min(steps[s], p.step);
    }
    indexed_picks_ = picks.size();
  }
  const auto it =
      first_pick_.find((static_cast<std::uint64_t>(u) << 32) | v);
  return it == first_pick_.end() ? kUnreached : it->second[slot];
}

}  // namespace lcrb
