// SCBG's bridge-end membership matrix (paper Algorithm 3, steps 2-5).
//
// Under DOAM the Bridge-end Backward Search Tree (BBST) of bridge end b is
// every node that saves b when seeded as a protector:
// {w not in S_R : dist(w, b) <= d_R(b)} (DESIGN §6.4). The matrix keeps that
// membership one bit per (node, bridge end). Bridge ends are the lanes of
// 64-lane blocks, in descending d_R order (ties by bridge-end index), and a
// block stores only the nodes whose 64-bit word is nonzero — ascending node
// ids plus their words — so the footprint is O(nonzero words), never the
// dense n * |B| / 64. A node's row (its words across blocks) is its SW set.
//
// Each block is built by one bit-parallel reverse BFS (the multi-source BFS
// of Then et al., VLDB 2015): a lane expands while the level is below its
// d_R, rumor seeds never enter a row, and the block stops at its deepest
// lane, so blocks of shallow ends stop early. Blocks are independent and
// each lands in its own slot, so the matrix is bit-identical at any thread
// count.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph_view.h"
#include "lcrb/bridge.h"
#include "lcrb/ris.h"
#include "util/threadpool.h"
#include "util/types.h"

namespace lcrb {

class BbstMatrix;
CoverageGreedyOutcome cover_bbst_matrix(BbstMatrix m, NodeId num_nodes);

/// Builds the matrix of bridges.bridge_ends, one bit-parallel reverse sweep
/// per block, in parallel on `pool` when given. d_R(b) is
/// bridges.rumor_dist[b]. Throws unless every bridge end is an in-range
/// node, not a rumor seed, and reachable from the rumors.
template <GraphView G>
BbstMatrix build_bbst_matrix(const G& g, std::span<const NodeId> rumors,
                             const BridgeEndResult& bridges,
                             ThreadPool* pool = nullptr);

class BbstMatrix {
 public:
  static constexpr std::size_t kLanes = 64;

  /// |B|: one lane per bridge end.
  std::size_t num_ends() const { return lane_end_.size(); }
  std::size_t num_blocks() const { return blocks_.size(); }
  /// Bridge-end index (into the bridge_ends the matrix was built from) of
  /// every lane, block-major: lane l of block k is entry k * kLanes + l.
  std::span<const std::uint32_t> lane_ends() const { return lane_end_; }
  /// Lanes in use in block k (kLanes except possibly the last block).
  std::size_t block_lanes(std::size_t k) const;
  /// Nodes with a nonzero word in block k, ascending, and those words.
  std::span<const NodeId> block_nodes(std::size_t k) const {
    return blocks_[k].nodes;
  }
  std::span<const std::uint64_t> block_words(std::size_t k) const {
    return blocks_[k].words;
  }
  /// Nonzero (node, block) words over all blocks.
  std::size_t nonzero_words() const;
  /// Row popcounts: the number of BBSTs holding each node (|SW(v)|).
  std::vector<std::uint32_t> row_counts(NodeId num_nodes) const;

  /// Heap footprint (capacity-based).
  std::size_t memory_bytes() const;

  /// Throws lcrb::Error unless the lanes are a permutation of the bridge-end
  /// indices, every block's nodes are strictly ascending and in range, and
  /// every stored word is nonzero and confined to the block's lanes.
  void validate(NodeId num_nodes) const;

 private:
  struct Block {
    std::vector<NodeId> nodes;
    std::vector<std::uint64_t> words;
  };
  template <GraphView G>
  friend BbstMatrix build_bbst_matrix(const G&, std::span<const NodeId>,
                                      const BridgeEndResult&, ThreadPool*);
  friend CoverageGreedyOutcome cover_bbst_matrix(BbstMatrix, NodeId);

  std::vector<std::uint32_t> lane_end_;
  std::vector<Block> blocks_;
};

/// Greedy set cover of the bridge ends by matrix rows: the lazy max-coverage
/// greedy of coverage_greedy (exact residual counts, lowest node id on
/// ties), run until every bridge end is covered. A pick v covers
/// word(v) & uncovered in each block, then one pass over that block's
/// stored words decrements the counts of the nodes holding a newly covered
/// lane, strips the covered lanes and drops the words left empty, so the
/// passes shrink as lanes close. The matrix is consumed in place; pass a
/// copy to keep it. `gains` counts newly covered bridge ends per pick.
CoverageGreedyOutcome cover_bbst_matrix(BbstMatrix m, NodeId num_nodes);

}  // namespace lcrb
