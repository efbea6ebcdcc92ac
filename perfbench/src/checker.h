// The reference checker: answers are judged against a computation made
// apart from the program under test. It shares no code with src/routing —
// it copies the graph's arcs into its own adjacency arrays (reading only
// Graph::OutArcs), runs its own binary-heap Dijkstra over them, applies
// weight deltas itself, and checks path replies hop by hop.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/types.h"

namespace perfbench {

using ah::Dist;
using ah::NodeId;
using ah::Weight;

inline constexpr Dist kUnreachable = ~Dist{0};

/// One version of the road network's weights, in the checker's own CSR.
class RefGraph {
 public:
  explicit RefGraph(const ah::Graph& g);

  std::size_t NumNodes() const { return first_.size() - 1; }

  /// Sets the weight of every arc u→v (parallel arcs included), as a
  /// weight update does. Returns false when no such arc exists.
  bool SetWeight(NodeId u, NodeId v, Weight w);

  /// Cheapest arc u→v, or kUnreachable when there is none.
  Dist ArcWeight(NodeId u, NodeId v) const;

  /// One-to-all distances from s into *dist (resized to NumNodes()).
  /// Nodes farther than `bound` may be left at kUnreachable.
  void Distances(NodeId s, std::vector<Dist>* dist,
                 Dist bound = kUnreachable) const;

 private:
  std::vector<std::uint64_t> first_;
  std::vector<NodeId> head_;
  std::vector<Weight> weight_;
};

/// Why a reply was rejected (empty = accepted).
std::string CheckPath(const RefGraph& g, NodeId s, NodeId t, Dist expected,
                      Dist reported_length, std::span<const NodeId> nodes);

}  // namespace perfbench
