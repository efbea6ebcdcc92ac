// 2-hop hub labeling (pruned landmark labeling; Akiba et al., SIGMOD'13 —
// see PAPERS.md): the post-paper point of comparison that pushes exact
// distance queries below every hierarchy-traversal method in this repo.
//
// Every node v carries two flat label arrays sorted by hub rank:
//   Lout(v) = { (h, d(v→h)) }   and   Lin(v) = { (h, d(h→v)) },
// built by one pruned forward + one pruned backward Dijkstra per hub, in
// importance order (the reverse CH greedy contraction order — the same
// notion of importance the CH/AH hierarchies rank by). A distance query is
// a single merge join over Lout(s) and Lin(t): min over common hubs of the
// two label distances — no heap, no graph traversal, O(|Lout|+|Lin|) array
// scans. Pruning keeps labels small: a node already covered by
// higher-ranked hubs at its settle distance is neither labeled nor relaxed
// from, which preserves exactness (the highest-ranked node on a shortest
// path is never pruned along it) while cutting label growth.
//
// Paths are native: each label also stores the adjacent *parent* one hop
// toward (out-labels) or from (in-labels) the hub, so the best hub's two
// legs unroll by parent-pointer walks with one binary search per hop —
// zero distance probes (asserted by the conformance suite).
//
// The parallel build is round-synchronous and deterministic: hubs run in
// fixed rounds of kHubRound, each round's searches prune only against
// labels committed before the round, and per-hub deltas are committed
// serially in hub-rank order through the same bounded claim window SILC's
// build uses — bit-identical output at any thread count, with at most
// O(threads) per-hub delta buffers live.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "routing/path.h"
#include "util/types.h"

namespace ah {

/// One hub label. 16 bytes, no padding, trivially copyable (serialized and
/// compared raw by the determinism tests).
struct HlLabel {
  Rank hub;       ///< Hub rank; strictly ascending within one label array.
  NodeId parent;  ///< Adjacent node one hop toward (out) / from (in) the
                  ///< hub; kInvalidNode on the hub's own label.
  Dist dist;      ///< Label distance (v→hub for out, hub→v for in).
};

inline bool operator==(const HlLabel& a, const HlLabel& b) {
  return a.hub == b.hub && a.parent == b.parent && a.dist == b.dist;
}

struct HlBuildStats {
  double seconds = 0;
  std::size_t in_labels = 0;   ///< Total in-label entries.
  std::size_t out_labels = 0;  ///< Total out-label entries.
  /// Peak number of per-hub delta buffers live during the build — bounded
  /// by the claim window (O(build threads)), never by the hub count.
  std::size_t max_live_label_buffers = 0;
  /// The claim window the build ran with.
  std::size_t label_window = 0;
};

struct HlParams {
  /// Worker threads for the per-hub pruned searches (0 = the
  /// util/worker_pool.h WorkerThreads() default). The label tables are
  /// bit-identical at any thread count: rounds are a fixed partition of the
  /// hub order and deltas are committed serially in hub-rank order.
  std::size_t build_threads = 0;
};

class HlIndex {
 public:
  /// Builds the full 2-hop labeling. `g` is only read during the build —
  /// unlike the other indexes, queries never touch the graph again.
  static HlIndex Build(const Graph& g, const HlParams& params = {});

  /// Weights-only rebuild: relabels `g` with `previous`'s frozen hub order,
  /// skipping the greedy contraction that computes it. Pruned labeling is
  /// exact for any hub order, so the labels answer queries on `g` exactly;
  /// like Build, the result is bit-identical at any thread count. `g` must
  /// have `previous`'s node count (weight deltas never change topology);
  /// throws std::invalid_argument otherwise.
  static HlIndex RebuildWithFrozenOrder(const Graph& g,
                                        const HlIndex& previous,
                                        const HlParams& params = {});

  std::size_t NumNodes() const { return hub_of_rank_.size(); }
  const HlBuildStats& build_stats() const { return build_stats_; }

  /// Exact distance via one merge join over Lout(s) and Lin(t).
  Dist Distance(NodeId s, NodeId t) const;

  /// Exact path by unrolling the best hub's parent chains; no distance
  /// probes. Empty nodes iff unreachable.
  PathResult Path(NodeId s, NodeId t) const;

  std::span<const HlLabel> OutLabels(NodeId v) const {
    return {out_labels_.data() + out_first_[v],
            out_labels_.data() + out_first_[v + 1]};
  }
  std::span<const HlLabel> InLabels(NodeId v) const {
    return {in_labels_.data() + in_first_[v],
            in_labels_.data() + in_first_[v + 1]};
  }

  /// Raw tables, exposed so the build-determinism test can assert
  /// bit-identity across thread counts.
  const std::vector<HlLabel>& in_labels() const { return in_labels_; }
  const std::vector<HlLabel>& out_labels() const { return out_labels_; }
  const std::vector<std::uint64_t>& in_offsets() const { return in_first_; }
  const std::vector<std::uint64_t>& out_offsets() const { return out_first_; }
  const std::vector<NodeId>& hub_of_rank() const { return hub_of_rank_; }

  std::size_t SizeBytes() const;

  /// Versioned persistence ("AHHL"). Loaded indexes answer queries without
  /// any graph: the labels are self-contained.
  void Save(std::ostream& out) const;
  static HlIndex Load(std::istream& in);

 private:
  /// The round-synchronous parallel labeling over a given hub order — the
  /// shared tail of Build (fresh greedy order) and RebuildWithFrozenOrder
  /// (order inherited from a previous index). Sets every field except
  /// build_stats_.seconds, which the callers time themselves.
  static HlIndex BuildWithHubOrder(const Graph& g,
                                   std::vector<NodeId> hub_of_rank,
                                   const HlParams& params);

  std::vector<NodeId> hub_of_rank_;      // rank -> node id
  std::vector<std::uint64_t> in_first_;  // CSR offsets, size n+1
  std::vector<std::uint64_t> out_first_;
  std::vector<HlLabel> in_labels_;
  std::vector<HlLabel> out_labels_;
  HlBuildStats build_stats_;
};

}  // namespace ah
