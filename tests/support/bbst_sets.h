// Test-side decoding of a BbstMatrix (lcrb/bbst_matrix.h) into the explicit
// set family it encodes: one BBST per bridge end, in bridge-end order, and
// the inverse SW map. Tests compare these against brute-force oracles.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "lcrb/bbst_matrix.h"

namespace lcrb::reference {

struct BbstSets {
  /// sets[i]: the BBST of bridge end i, ascending node ids.
  std::vector<std::vector<NodeId>> sets;
  /// sw[v]: the bridge-end indices whose BBST holds v, ascending.
  std::vector<std::vector<std::uint32_t>> sw;
  /// Total (node, bridge end) memberships.
  std::size_t total = 0;
};

inline BbstSets decode_bbsts(const BbstMatrix& m, NodeId num_nodes) {
  BbstSets out;
  out.sets.resize(m.num_ends());
  out.sw.resize(num_nodes);
  const auto lanes = m.lane_ends();
  for (std::size_t k = 0; k < m.num_blocks(); ++k) {
    const auto nodes = m.block_nodes(k);
    const auto words = m.block_words(k);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      for (std::size_t l = 0; l < BbstMatrix::kLanes; ++l) {
        if (((words[i] >> l) & 1) == 0) continue;
        const std::uint32_t end = lanes[k * BbstMatrix::kLanes + l];
        out.sets[end].push_back(nodes[i]);  // blocks list nodes ascending
        out.sw[nodes[i]].push_back(end);
        ++out.total;
      }
    }
  }
  for (auto& s : out.sw) std::sort(s.begin(), s.end());
  return out;
}

}  // namespace lcrb::reference
