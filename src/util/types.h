// Core scalar types shared across the library.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>

namespace ah {

/// Node identifier. Dense, 0-based.
using NodeId = std::uint32_t;
/// Edge identifier (index into a CSR arc array). Dense, 0-based.
using EdgeId = std::uint32_t;
/// Non-negative edge weight (e.g., travel time in deciseconds).
using Weight = std::uint32_t;
/// Accumulated path length. 64-bit so sums of Weight cannot overflow.
using Dist = std::uint64_t;
/// Hierarchy level (0 = least important).
using Level = std::int32_t;
/// Strict-total-order rank of a node inside a hierarchy.
using Rank = std::uint32_t;

inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();
inline constexpr EdgeId kInvalidEdge = std::numeric_limits<EdgeId>::max();
inline constexpr Dist kInfDist = std::numeric_limits<Dist>::max();
inline constexpr Weight kMaxWeight = std::numeric_limits<Weight>::max();

/// Advances a search's round counter (a node stamp equal to the round marks
/// a label of the current search). On wrap it clears every array stamped
/// with the counter and restarts at 1, so no stamp written 2^32 rounds
/// earlier reads as current.
template <typename... Stamps>
std::uint32_t NextRound(std::uint32_t& round, Stamps&... stamps) {
  if (++round == 0) {
    (std::fill(stamps.begin(), stamps.end(), std::uint32_t{0}), ...);
    round = 1;
  }
  return round;
}

}  // namespace ah
