#include "alt/alt_index.h"

#include <algorithm>

#include "routing/dijkstra.h"
#include "util/rng.h"
#include "util/timer.h"

namespace ah {

AltIndex AltIndex::Build(const Graph& g, const AltParams& params) {
  Timer timer;
  AltIndex index;
  index.n_ = g.NumNodes();
  const std::size_t L = std::max<std::size_t>(1, params.num_landmarks);

  // Farthest-point landmark selection: start from a random node, then
  // repeatedly pick the node maximizing the minimum distance to the chosen
  // set (using forward distances).
  Rng rng(params.seed);
  Dijkstra dijkstra(g);
  std::vector<Dist> min_dist(index.n_, kInfDist);
  NodeId candidate = static_cast<NodeId>(rng.Uniform(index.n_));
  for (std::size_t l = 0; l < L; ++l) {
    index.landmarks_.push_back(candidate);
    dijkstra.Run(candidate);
    NodeId farthest = candidate;
    Dist far_d = 0;
    for (NodeId v = 0; v < index.n_; ++v) {
      min_dist[v] = std::min(min_dist[v], dijkstra.DistTo(v));
      if (min_dist[v] != kInfDist && min_dist[v] > far_d) {
        far_d = min_dist[v];
        farthest = v;
      }
    }
    candidate = farthest;
  }

  index.from_.resize(L * index.n_);
  index.to_.resize(L * index.n_);
  for (std::size_t l = 0; l < L; ++l) {
    dijkstra.Run(index.landmarks_[l], Direction::kForward);
    for (NodeId v = 0; v < index.n_; ++v) {
      index.from_[l * index.n_ + v] = dijkstra.DistTo(v);
    }
    dijkstra.Run(index.landmarks_[l], Direction::kBackward);
    for (NodeId v = 0; v < index.n_; ++v) {
      index.to_[l * index.n_ + v] = dijkstra.DistTo(v);
    }
  }
  index.build_seconds_ = timer.Seconds();
  return index;
}

Dist AltIndex::Potential(NodeId v, NodeId t) const {
  Dist best = 0;
  for (std::size_t l = 0; l < landmarks_.size(); ++l) {
    const Dist v_to_l = ToLandmark(l, v);
    const Dist t_to_l = ToLandmark(l, t);
    if (v_to_l != kInfDist && t_to_l != kInfDist && v_to_l > t_to_l) {
      best = std::max(best, v_to_l - t_to_l);
    }
    const Dist l_to_v = FromLandmark(l, v);
    const Dist l_to_t = FromLandmark(l, t);
    if (l_to_v != kInfDist && l_to_t != kInfDist && l_to_t > l_to_v) {
      best = std::max(best, l_to_t - l_to_v);
    }
  }
  return best;
}

std::size_t AltIndex::SizeBytes() const {
  return landmarks_.size() * sizeof(NodeId) +
         (from_.size() + to_.size()) * sizeof(Dist);
}

AltQuery::AltQuery(const Graph& g, const AltIndex& index)
    : graph_(g),
      index_(index),
      heap_(g.NumNodes()),
      dist_(g.NumNodes(), kInfDist),
      parent_(g.NumNodes(), kInvalidNode),
      stamp_(g.NumNodes(), 0) {}

Dist AltQuery::Distance(NodeId s, NodeId t) {
  last_settled_ = 0;
  if (s == t) return 0;
  NextRound(round_, stamp_);
  heap_.Clear();

  stamp_[s] = round_;
  dist_[s] = 0;
  parent_[s] = kInvalidNode;
  heap_.PushOrDecrease(s, index_.Potential(s, t));
  while (!heap_.Empty()) {
    auto [key, u] = heap_.PopMin();
    (void)key;
    ++last_settled_;
    if (u == t) return dist_[u];
    const Dist du = dist_[u];
    for (const Arc& a : graph_.OutArcs(u)) {
      const Dist nd = du + a.weight;
      if (stamp_[a.head] != round_ || nd < dist_[a.head]) {
        stamp_[a.head] = round_;
        dist_[a.head] = nd;
        parent_[a.head] = u;
        // Consistent potential: settled nodes are final, A* stays Dijkstra-
        // like on the re-weighted graph.
        heap_.PushOrDecrease(a.head, nd + index_.Potential(a.head, t));
      }
    }
  }
  return kInfDist;
}

PathResult AltQuery::Path(NodeId s, NodeId t) {
  PathResult result;
  const Dist d = Distance(s, t);
  if (d == kInfDist) return result;
  result.length = d;
  if (s == t) {
    result.nodes.push_back(s);
    return result;
  }
  // The parent chain from t necessarily ends at the search source s.
  for (NodeId v = t; v != kInvalidNode; v = parent_[v]) {
    result.nodes.push_back(v);
  }
  std::reverse(result.nodes.begin(), result.nodes.end());
  return result;
}

}  // namespace ah

