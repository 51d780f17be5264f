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
// tests/lcrb/lemma_test.cpp. The timestamps themselves (Fig. 1: the pick at
// step t by a node of cascade c stamps its edge "t_c") are never logged by
// the library; tests/support/opoao_reference.h replays them as a pick log
// for the proof-construction tests.
#pragma once

#include <cstdint>

#include "util/types.h"

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

}  // namespace lcrb
