// Fundamental scalar types shared across the LCRB library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

namespace lcrb {

/// Node identifier. 32 bits comfortably covers the paper's graphs
/// (36,692 nodes) and anything laptop-scale.
using NodeId = std::uint32_t;

/// Edge index into a CSR arc array.
using EdgeId = std::uint64_t;

/// Community identifier produced by community detection.
using CommunityId = std::uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

/// Sentinel for "no community".
inline constexpr CommunityId kInvalidCommunity =
    std::numeric_limits<CommunityId>::max();

/// Sentinel hop count for "never reached" in BFS / diffusion outputs.
inline constexpr std::uint32_t kUnreached =
    std::numeric_limits<std::uint32_t>::max();

/// a * b and a + b clamped at SIZE_MAX instead of wrapping: byte estimates
/// of configs that cannot be built must still compare as too large.
constexpr std::size_t sat_mul(std::size_t a, std::size_t b) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  return b != 0 && a > kMax / b ? kMax : a * b;
}
constexpr std::size_t sat_add(std::size_t a, std::size_t b) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  return a > kMax - b ? kMax : a + b;
}

}  // namespace lcrb
