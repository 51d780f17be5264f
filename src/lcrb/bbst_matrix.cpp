#include "lcrb/bbst_matrix.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <span>
#include <utility>

#include "graph/ef_graph.h"
#include "graph/graph.h"
#include "lcrb/lazy_cover.h"
#include "util/check.h"
#include "util/error.h"
#include "util/scratch_pool.h"

namespace lcrb {

namespace {

/// One sweep's per-node lane words: `seen` holds the lanes that reached a
/// node, `cur`/`nxt` the lanes that reached it at the current/next level.
/// Between sweeps every word is zero except `seen` of a rumor seed, which
/// holds every lane so that no lane ever enters it. The frontier lists have
/// room for every node plus one, so the relaxation loop can append without
/// a branch.
struct SweepScratch {
  SweepScratch(NodeId n, std::span<const NodeId> rumors)
      : seen(n, 0), cur(n, 0), nxt(n, 0),
        frontier(n + std::size_t{1}), next(n + std::size_t{1}) {
    for (NodeId r : rumors) seen[r] = ~std::uint64_t{0};
  }
  std::vector<std::uint64_t> seen, cur, nxt;
  std::vector<NodeId> frontier, next;
};

std::uint64_t low_lanes(std::size_t count) {
  return count >= BbstMatrix::kLanes ? ~std::uint64_t{0}
                                     : (std::uint64_t{1} << count) - 1;
}

}  // namespace

std::size_t BbstMatrix::block_lanes(std::size_t k) const {
  return std::min(kLanes, lane_end_.size() - k * kLanes);
}

std::size_t BbstMatrix::nonzero_words() const {
  std::size_t total = 0;
  for (const Block& b : blocks_) total += b.nodes.size();
  return total;
}

std::vector<std::uint32_t> BbstMatrix::row_counts(NodeId num_nodes) const {
  std::vector<std::uint32_t> cnt(num_nodes, 0);
  for (const Block& b : blocks_) {
    for (std::size_t i = 0; i < b.nodes.size(); ++i) {
      cnt[b.nodes[i]] += static_cast<std::uint32_t>(std::popcount(b.words[i]));
    }
  }
  return cnt;
}

std::size_t BbstMatrix::memory_bytes() const {
  std::size_t bytes = sizeof(*this) +
                      lane_end_.capacity() * sizeof(std::uint32_t) +
                      blocks_.capacity() * sizeof(Block);
  for (const Block& b : blocks_) {
    bytes += b.nodes.capacity() * sizeof(NodeId) +
             b.words.capacity() * sizeof(std::uint64_t);
  }
  return bytes;
}

void BbstMatrix::validate(NodeId num_nodes) const {
  std::vector<std::uint32_t> sorted(lane_end_.begin(), lane_end_.end());
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    LCRB_REQUIRE(sorted[i] == i, "lanes must permute the bridge-end indices");
  }
  LCRB_REQUIRE(blocks_.size() == (lane_end_.size() + kLanes - 1) / kLanes,
               "one block per 64 lanes");
  for (std::size_t k = 0; k < blocks_.size(); ++k) {
    const Block& b = blocks_[k];
    LCRB_REQUIRE(b.nodes.size() == b.words.size(),
                 "one word per stored node");
    const std::uint64_t lanes = low_lanes(block_lanes(k));
    for (std::size_t i = 0; i < b.nodes.size(); ++i) {
      LCRB_REQUIRE(b.nodes[i] < num_nodes, "matrix node out of range");
      LCRB_REQUIRE(i == 0 || b.nodes[i - 1] < b.nodes[i],
                   "block nodes must be strictly ascending");
      LCRB_REQUIRE(b.words[i] != 0 && (b.words[i] & ~lanes) == 0,
                   "stored words must be nonzero and within the block's lanes");
    }
  }
}

template <GraphView G>
BbstMatrix build_bbst_matrix(const G& g, std::span<const NodeId> rumors,
                             const BridgeEndResult& bridges,
                             ThreadPool* pool) {
  const NodeId n = g.num_nodes();
  std::vector<char> is_rumor(n, 0);
  for (NodeId r : rumors) {
    LCRB_REQUIRE(r < n, "rumor seed out of range");
    is_rumor[r] = 1;
  }
  const std::vector<NodeId>& ends = bridges.bridge_ends;
  std::vector<std::uint32_t> depth(ends.size());
  for (std::size_t i = 0; i < ends.size(); ++i) {
    const NodeId b = ends[i];
    LCRB_REQUIRE(b < n && b < bridges.rumor_dist.size(),
                 "bridge end out of range");
    LCRB_REQUIRE(!is_rumor[b], "bridge end is a rumor seed");
    depth[i] = bridges.rumor_dist[b];
    LCRB_REQUIRE(depth[i] != kUnreached,
                 "bridge end must be reachable from the rumors");
  }

  BbstMatrix m;
  m.lane_end_.resize(ends.size());
  std::iota(m.lane_end_.begin(), m.lane_end_.end(), 0u);
  std::stable_sort(m.lane_end_.begin(), m.lane_end_.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return depth[a] > depth[b];
                   });
  m.blocks_.resize((ends.size() + BbstMatrix::kLanes - 1) /
                   BbstMatrix::kLanes);

  ScratchPool<SweepScratch> scratch;
  auto sweep = [&](std::size_t k) {
    auto sc = scratch.lease(n, rumors);
    std::uint64_t* seen = sc->seen.data();
    std::uint64_t* cur = sc->cur.data();
    std::uint64_t* nxt = sc->nxt.data();
    NodeId* frontier = sc->frontier.data();
    NodeId* next = sc->next.data();
    std::size_t num_frontier = 0;

    const std::size_t width = m.block_lanes(k);
    const std::span<const std::uint32_t> lanes(
        m.lane_end_.data() + k * BbstMatrix::kLanes, width);
    for (std::size_t l = 0; l < width; ++l) {
      const NodeId b = ends[lanes[l]];
      const std::uint64_t bit = std::uint64_t{1} << l;
      seen[b] |= bit;
      if (cur[b] == 0) frontier[num_frontier++] = b;
      cur[b] |= bit;
    }
    // Lanes descend by depth, so the lanes still expanding past `level`
    // are a prefix, and lane 0 sets the block's last level.
    std::size_t live_count = width;
    for (std::uint32_t level = 0; level < depth[lanes[0]]; ++level) {
      while (depth[lanes[live_count - 1]] <= level) --live_count;
      const std::uint64_t live = low_lanes(live_count);
      std::size_t num_next = 0;
      for (std::size_t i = 0; i < num_frontier; ++i) {
        const NodeId w = frontier[i];
        const std::uint64_t f = cur[w] & live;
        cur[w] = 0;
        if (f == 0) continue;
        // Branch-free: whether a lane is fresh at u is unpredictable.
        for (NodeId u : g.in_neighbors(w)) {
          const std::uint64_t s = seen[u];
          const std::uint64_t x = nxt[u];
          const std::uint64_t fresh = f & ~s;
          next[num_next] = u;
          num_next += static_cast<std::size_t>((x == 0) & (fresh != 0));
          seen[u] = s | fresh;
          nxt[u] = x | fresh;
        }
      }
      std::swap(cur, nxt);
      std::swap(frontier, next);
      num_frontier = num_next;
    }
    for (std::size_t i = 0; i < num_frontier; ++i) cur[frontier[i]] = 0;

    // Emit the reached nodes ascending by a scan of `seen`, which also
    // resets it. The rumor seeds' guard words are lifted for the scan, so a
    // nonzero word is a reached node; a counting pass sizes the block.
    for (NodeId r : rumors) seen[r] = 0;
    const std::size_t reached = static_cast<std::size_t>(
        n - std::count(seen, seen + n, std::uint64_t{0}));
    BbstMatrix::Block block;
    block.nodes.reserve(reached);
    block.words.reserve(reached);
    for (NodeId v = 0; v < n; ++v) {
      if (seen[v] != 0) {
        block.nodes.push_back(v);
        block.words.push_back(seen[v]);
        seen[v] = 0;
      }
    }
    for (NodeId r : rumors) seen[r] = ~std::uint64_t{0};
    m.blocks_[k] = std::move(block);
  };
  if (pool != nullptr) {
    pool->parallel_for(m.blocks_.size(), sweep);
  } else {
    for (std::size_t k = 0; k < m.blocks_.size(); ++k) sweep(k);
  }
  LCRB_INVARIANT(m.validate(n));
  return m;
}

CoverageGreedyOutcome cover_bbst_matrix(BbstMatrix m, NodeId num_nodes) {
  CoverageGreedyOutcome out;
  // Stored words keep only uncovered lanes, and a word left empty is
  // dropped, so v's stored word in a block is exactly what picking v covers.
  std::vector<std::uint32_t> cnt = m.row_counts(num_nodes);
  lazy_greedy_cover(
      cnt, 0, [&] { return out.covered < m.num_ends(); },
      [&](NodeId v) {
        for (BbstMatrix::Block& b : m.blocks_) {
          const auto it = std::lower_bound(b.nodes.begin(), b.nodes.end(), v);
          if (it == b.nodes.end() || *it != v) continue;
          const std::uint64_t newly = b.words[it - b.nodes.begin()];
          out.covered += static_cast<std::size_t>(std::popcount(newly));
          std::size_t keep = 0;
          for (std::size_t i = 0; i < b.nodes.size(); ++i) {
            const std::uint64_t w = b.words[i];
            const std::uint64_t hit = w & newly;
            if (hit != 0) {
              const auto dec = static_cast<std::uint32_t>(std::popcount(hit));
              cnt[b.nodes[i]] -= dec;
              out.ops += dec;
            }
            b.nodes[keep] = b.nodes[i];
            b.words[keep] = w & ~newly;
            keep += static_cast<std::size_t>(w != hit);
          }
          b.nodes.resize(keep);
          b.words.resize(keep);
        }
      },
      out);
  return out;
}

#define LCRB_INSTANTIATE_BBST_MATRIX(G)                                     \
  template BbstMatrix build_bbst_matrix<G>(const G&, std::span<const NodeId>, \
                                           const BridgeEndResult&,          \
                                           ThreadPool*);

LCRB_INSTANTIATE_BBST_MATRIX(DiGraph)
LCRB_INSTANTIATE_BBST_MATRIX(EfGraph)

#undef LCRB_INSTANTIATE_BBST_MATRIX

}  // namespace lcrb
