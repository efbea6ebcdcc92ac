#include "routing/bidirectional.h"

#include <algorithm>

namespace ah {

BidirectionalDijkstra::BidirectionalDijkstra(const Graph& g) : graph_(g) {
  const std::size_t n = g.NumNodes();
  for (Side* side : {&fwd_, &bwd_}) {
    side->heap.Resize(n);
    side->dist.assign(n, kInfDist);
    side->parent.assign(n, kInvalidNode);
    side->stamp.assign(n, 0);
  }
}

void BidirectionalDijkstra::Reset() {
  NextRound(round_, fwd_.stamp, bwd_.stamp);
  fwd_.heap.Clear();
  bwd_.heap.Clear();
  last_settled_ = 0;
}

// Settles one node from `side`; updates the best meeting point against the
// opposite side's labels. Returns false when the side's queue is exhausted.
bool BidirectionalDijkstra::Relax(Side& side, Direction dir, Dist& best,
                                  NodeId& meet, const Side& other) {
  if (side.heap.Empty()) return false;
  auto [d, u] = side.heap.PopMin();
  ++last_settled_;
  if (other.stamp[u] == round_ && other.dist[u] != kInfDist) {
    const Dist via = d + other.dist[u];
    if (via < best) {
      best = via;
      meet = u;
    }
  }
  const auto arcs =
      dir == Direction::kForward ? graph_.OutArcs(u) : graph_.InArcs(u);
  for (const Arc& a : arcs) {
    const Dist nd = d + a.weight;
    if (side.stamp[a.head] != round_ || nd < side.dist[a.head]) {
      side.stamp[a.head] = round_;
      side.dist[a.head] = nd;
      side.parent[a.head] = u;
      side.heap.PushOrDecrease(a.head, nd);
    }
  }
  return true;
}

Dist BidirectionalDijkstra::Distance(NodeId s, NodeId t) {
  Reset();
  if (s == t) {
    last_distance_ = 0;
    return 0;
  }

  fwd_.stamp[s] = round_;
  fwd_.dist[s] = 0;
  fwd_.parent[s] = kInvalidNode;
  fwd_.heap.PushOrDecrease(s, 0);
  bwd_.stamp[t] = round_;
  bwd_.dist[t] = 0;
  bwd_.parent[t] = kInvalidNode;
  bwd_.heap.PushOrDecrease(t, 0);

  Dist best = kInfDist;
  NodeId meet = kInvalidNode;
  bool forward_turn = true;
  while (!fwd_.heap.Empty() || !bwd_.heap.Empty()) {
    // Termination: once θ (best) is no more than the smallest key of a
    // queue, that side cannot improve the answer (Section 3.2).
    const Dist fmin = fwd_.heap.Empty() ? kInfDist : fwd_.heap.MinKey();
    const Dist bmin = bwd_.heap.Empty() ? kInfDist : bwd_.heap.MinKey();
    if (best <= std::min(fmin, bmin)) break;
    // Round-robin between the sides, skipping exhausted ones.
    if (forward_turn && fwd_.heap.Empty()) forward_turn = false;
    if (!forward_turn && bwd_.heap.Empty()) forward_turn = true;
    if (forward_turn) {
      Relax(fwd_, Direction::kForward, best, meet, bwd_);
    } else {
      Relax(bwd_, Direction::kBackward, best, meet, fwd_);
    }
    forward_turn = !forward_turn;
  }
  last_meet_ = meet;
  last_distance_ = best;
  return best;
}

std::vector<NodeId> BidirectionalDijkstra::Path(NodeId s, NodeId t) {
  const Dist d = Distance(s, t);
  if (d == kInfDist) return {};
  if (s == t) return {s};
  std::vector<NodeId> path;
  for (NodeId v = last_meet_; v != kInvalidNode; v = fwd_.parent[v]) {
    path.push_back(v);
  }
  std::reverse(path.begin(), path.end());
  for (NodeId v = bwd_.parent[last_meet_]; v != kInvalidNode;
       v = bwd_.parent[v]) {
    path.push_back(v);
  }
  return path;
}

}  // namespace ah
