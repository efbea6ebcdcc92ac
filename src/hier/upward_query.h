// Bidirectional upward search over a SearchGraph — the query engine behind
// CH and AH. Both frontiers only ever move from lower-ranked to
// higher-ranked nodes (the paper's rank constraint); the standard hierarchy
// argument makes the result exact whenever the shortcut set came from
// witness-checked contraction. AH layers its proximity filter and elevating
// seeds on top via the template hooks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "hier/search_graph.h"
#include "util/indexed_heap.h"
#include "util/types.h"

namespace ah {

struct QueryStats {
  std::size_t settled = 0;
  std::size_t relaxed = 0;
  std::size_t stalled = 0;
};

/// An initial frontier entry: node plus the (exact) distance from the query
/// endpoint. Plain queries use a single seed {s, 0}; AH's elevating jumps
/// seed the frontier directly at high-level nodes.
struct SearchSeed {
  NodeId node = kInvalidNode;
  Dist dist = 0;
};

/// Accepts every arc; the default filter.
struct NoFilter {
  bool operator()(NodeId /*from*/, NodeId /*to*/) const { return true; }
};

class BidirUpwardSearch {
 public:
  explicit BidirUpwardSearch(const SearchGraph& sg)
      : sg_(sg),
        fwd_(sg.NumNodes()),
        bwd_(sg.NumNodes()) {}

  /// Runs the bidirectional upward search. Filters decide, per relaxation,
  /// whether the arc from→to may be taken (applied on top of the rank
  /// constraint, which is structural: only upward arcs are stored).
  /// Returns the shortest distance, kInfDist if the frontiers never meet.
  template <typename FwdFilter = NoFilter, typename BwdFilter = NoFilter>
  Dist Run(std::span<const SearchSeed> fwd_seeds,
           std::span<const SearchSeed> bwd_seeds,
           FwdFilter fwd_filter = {}, BwdFilter bwd_filter = {}) {
    NextRound(round_, fwd_.stamp, bwd_.stamp);
    stats_ = {};
    best_ = kInfDist;
    meet_ = kInvalidNode;
    fwd_.heap.Clear();
    bwd_.heap.Clear();

    for (const SearchSeed& seed : fwd_seeds) Seed(fwd_, seed);
    for (const SearchSeed& seed : bwd_seeds) Seed(bwd_, seed);

    bool forward_turn = true;
    while (!fwd_.heap.Empty() || !bwd_.heap.Empty()) {
      const Dist fmin = fwd_.heap.Empty() ? kInfDist : fwd_.heap.MinKey();
      const Dist bmin = bwd_.heap.Empty() ? kInfDist : bwd_.heap.MinKey();
      if (best_ <= std::min(fmin, bmin)) break;
      if (forward_turn && fwd_.heap.Empty()) forward_turn = false;
      if (!forward_turn && bwd_.heap.Empty()) forward_turn = true;
      if (forward_turn) {
        SettleOne(fwd_, bwd_, /*forward=*/true, fwd_filter);
      } else {
        SettleOne(bwd_, fwd_, /*forward=*/false, bwd_filter);
      }
      forward_turn = !forward_turn;
    }
    return best_;
  }

  /// Convenience single-pair run without filters.
  Dist Distance(NodeId s, NodeId t) {
    if (s == t) {
      // Normalize: zero-distance identity query.
      const SearchSeed seed{s, 0};
      Run(std::span(&seed, 1), std::span(&seed, 1));
      return 0;
    }
    const SearchSeed fs{s, 0};
    const SearchSeed ts{t, 0};
    return Run(std::span(&fs, 1), std::span(&ts, 1));
  }

  Dist BestDistance() const { return best_; }
  NodeId MeetNode() const { return meet_; }
  const QueryStats& Stats() const { return stats_; }

  /// Toggles stall-on-demand (default on; an engine-level optimization that
  /// benefits CH and AH equally and preserves exactness).
  void SetStallOnDemand(bool enabled) { stall_on_demand_ = enabled; }

  /// Hierarchy-space path of the last Run: seed_f, ..., meet, ..., seed_b —
  /// consecutive elements are hierarchy arcs. Empty if no meeting occurred.
  /// The caller expands shortcuts via SearchGraph::UnpackPath and stitches
  /// seed prefixes/suffixes if elevating seeds were used.
  std::vector<NodeId> HierarchyPath() const {
    std::vector<NodeId> path;
    if (meet_ == kInvalidNode) return path;
    for (NodeId v = meet_; v != kInvalidNode; v = Parent(fwd_, v)) {
      path.push_back(v);
    }
    std::reverse(path.begin(), path.end());
    for (NodeId v = Parent(bwd_, meet_); v != kInvalidNode;
         v = Parent(bwd_, v)) {
      path.push_back(v);
    }
    return path;
  }

  /// The seed node from which the meet was reached on each side (equals the
  /// first/last entry of HierarchyPath()).
  NodeId FwdSeedOfMeet() const {
    return meet_ == kInvalidNode ? kInvalidNode : ChainStart(fwd_, meet_);
  }
  NodeId BwdSeedOfMeet() const {
    return meet_ == kInvalidNode ? kInvalidNode : ChainStart(bwd_, meet_);
  }

 private:
  struct Side {
    explicit Side(std::size_t n)
        : heap(n), dist(n, kInfDist), parent(n, kInvalidNode), stamp(n, 0) {}
    IndexedHeap heap;
    std::vector<Dist> dist;
    std::vector<NodeId> parent;
    std::vector<std::uint32_t> stamp;
  };

  void Seed(Side& side, const SearchSeed& seed) {
    if (side.stamp[seed.node] == round_ && side.dist[seed.node] <= seed.dist) {
      return;
    }
    side.stamp[seed.node] = round_;
    side.dist[seed.node] = seed.dist;
    side.parent[seed.node] = kInvalidNode;
    side.heap.PushOrDecrease(seed.node, seed.dist);
  }

  NodeId Parent(const Side& side, NodeId v) const {
    return side.stamp[v] == round_ ? side.parent[v] : kInvalidNode;
  }

  NodeId ChainStart(const Side& side, NodeId v) const {
    while (Parent(side, v) != kInvalidNode) v = Parent(side, v);
    return v;
  }

  // Stall-on-demand: u's label is witnessed suboptimal if a higher-ranked
  // node w already holds a label that reaches u more cheaply through the
  // *downward* arc w→u (forward side; symmetric for backward). Expanding a
  // stalled node cannot contribute to a shortest path.
  bool IsStalled(const Side& side, NodeId u, Dist d, bool forward) const {
    const auto down_arcs = forward ? sg_.UpIn(u) : sg_.UpOut(u);
    for (const UpArc& a : down_arcs) {
      if (side.stamp[a.node] == round_ &&
          side.dist[a.node] + a.weight < d) {
        return true;
      }
    }
    return false;
  }

  template <typename Filter>
  void SettleOne(Side& side, const Side& other, bool forward,
                 Filter& filter) {
    if (side.heap.Empty()) return;
    auto [d, u] = side.heap.PopMin();
    ++stats_.settled;
    if (other.stamp[u] == round_) {
      const Dist via = d + other.dist[u];
      if (via < best_) {
        best_ = via;
        meet_ = u;
      }
    }
    if (stall_on_demand_ && IsStalled(side, u, d, forward)) {
      ++stats_.stalled;
      return;
    }
    const auto arcs = forward ? sg_.UpOut(u) : sg_.UpIn(u);
    for (const UpArc& a : arcs) {
      if (!filter(u, a.node)) continue;
      ++stats_.relaxed;
      const Dist nd = d + a.weight;
      if (side.stamp[a.node] != round_ || nd < side.dist[a.node]) {
        side.stamp[a.node] = round_;
        side.dist[a.node] = nd;
        side.parent[a.node] = u;
        side.heap.PushOrDecrease(a.node, nd);
      }
    }
  }

  const SearchGraph& sg_;
  Side fwd_;
  Side bwd_;
  std::uint32_t round_ = 0;
  Dist best_ = kInfDist;
  NodeId meet_ = kInvalidNode;
  bool stall_on_demand_ = true;
  QueryStats stats_;
};

}  // namespace ah
