#include "routing/dijkstra.h"

namespace ah {

Dijkstra::Dijkstra(const Graph& g)
    : graph_(g),
      heap_(g.NumNodes()),
      dist_(g.NumNodes(), kInfDist),
      parent_(g.NumNodes(), kInvalidNode),
      stamp_(g.NumNodes(), 0) {}

void Dijkstra::Touch(NodeId v, Dist d, NodeId parent) {
  if (stamp_[v] != round_) {
    stamp_[v] = round_;
    dist_[v] = d;
    parent_[v] = parent;
  } else {
    dist_[v] = d;
    parent_[v] = parent;
  }
}

void Dijkstra::RunInternal(NodeId s, NodeId target, Direction dir,
                           Dist bound) {
  NextRound(round_, stamp_);
  heap_.Clear();
  settled_.clear();

  Touch(s, 0, kInvalidNode);
  heap_.PushOrDecrease(s, 0);

  while (!heap_.Empty()) {
    auto [d, u] = heap_.PopMin();
    if (d >= bound) break;
    settled_.push_back(u);
    if (u == target) break;
    const auto arcs = dir == Direction::kForward ? graph_.OutArcs(u)
                                                 : graph_.InArcs(u);
    for (const Arc& a : arcs) {
      const Dist nd = d + a.weight;
      if (nd >= bound) continue;
      if (stamp_[a.head] != round_ || nd < dist_[a.head]) {
        Touch(a.head, nd, u);
        heap_.PushOrDecrease(a.head, nd);
      }
    }
  }
}

Dist Dijkstra::Distance(NodeId s, NodeId t) {
  RunInternal(s, t, Direction::kForward, kInfDist);
  return DistTo(t);
}

void Dijkstra::Run(NodeId s, Direction dir, Dist bound) {
  RunInternal(s, kInvalidNode, dir, bound);
}

std::vector<NodeId> Dijkstra::Path(NodeId s, NodeId t) {
  RunInternal(s, t, Direction::kForward, kInfDist);
  if (DistTo(t) == kInfDist) return {};
  std::vector<NodeId> path;
  // The parent chain from t necessarily ends at the search source s.
  for (NodeId v = t; v != kInvalidNode; v = ParentOf(v)) path.push_back(v);
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace ah
