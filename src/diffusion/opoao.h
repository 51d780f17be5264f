// Opportunistic One-Activate-One (OPOAO) model (paper §III-A).
//
// Every step, EVERY active node picks one uniformly-random out-neighbor
// (repeat selection allowed — see the paper's Fig. 1 where x re-picks u at
// step 2). An inactive target activates at t+1 with the picker's color;
// protector picks are applied before rumor picks, which realizes the
// "P wins simultaneous arrival" rule.
//
// Randomness is stateless per (sample seed, node, step): the sample seed
// fixes which neighbor every node WOULD pick at every step, independent of
// when (or whether) the node activates. This is exactly the paper's
// timestamped random graphs G_R/G_P (§V-A); under it, runs with different
// protector sets are fully coupled, and the per-sample saved set |PB(S)| is
// monotone and submodular (Lemma 4) — verified exhaustively in
// tests/lcrb/lemma_test.cpp.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>

#include "diffusion/cascade.h"

namespace lcrb {

/// The stateless pick stream: which slot of v's out-neighbor list node v
/// would target at absolute step `step`, as a raw 64-bit draw (take it mod
/// out_degree(v)). A pure function of (sample seed, node, step) — this IS
/// the paper's random graph G_R/G_P. Exposed so the realization cache in
/// `lcrb/sigma.h` can materialize each sample's pick tables once.
/// Defined inline: it sits on the innermost loop of every forward run,
/// cache build, and RR draw, which the traits layer instantiates across
/// several translation units.
inline std::uint64_t opoao_pick_hash(std::uint64_t seed, NodeId v,
                                     std::uint32_t step) {
  std::uint64_t x = seed;
  x ^= (static_cast<std::uint64_t>(v) + 1) * 0x9e3779b97f4a7c15ULL;
  x ^= (static_cast<std::uint64_t>(step) + 1) * 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// One activation attempt: active node `from` picked out-neighbor `to` at
/// `step`; `activated` records whether the pick claimed the target. This is
/// the paper's timestamp assignment (§V-A, Fig. 1): the pick at step t by a
/// node of cascade c stamps edge (from, to) with "t_c".
struct OpoaoPick {
  std::uint32_t step;
  NodeId from;
  NodeId to;
  NodeState cascade;  ///< color of the picking node
  bool activated;     ///< target was inactive and adopted `cascade`
};

/// Full pick log of one simulation, in execution order (protector picks of a
/// step precede rumor picks — exactly the priority rule). Captured by
/// run_cascade<OpoaoTraits>(g, seeds, seed, params, &trace); costs memory
/// proportional to active-nodes x steps.
struct OpoaoTrace {
  std::vector<OpoaoPick> picks;

  /// Smallest step at which `color` picked edge (u, v) — the simplified
  /// timestamp of Fig. 1(b); kUnreached if the edge was never picked by
  /// that cascade. O(1) amortized: an edge index is built lazily on first
  /// query and extended incrementally when `picks` grew since (append-only
  /// log assumed; a shrink triggers a full rebuild). Not safe to call
  /// concurrently with other first_pick_step calls (the lazy index is
  /// shared).
  std::uint32_t first_pick_step(NodeId u, NodeId v, NodeState color) const;

 private:
  /// (from << 32 | to) -> first pick step per cascade color {P, R}.
  mutable std::unordered_map<std::uint64_t, std::array<std::uint32_t, 2>>
      first_pick_;
  mutable std::size_t indexed_picks_ = 0;  ///< picks.size() at index build
};

}  // namespace lcrb
