// SILC (Spatially Induced Linkage Cognizance; Samet et al., SIGMOD'08) —
// the worst-case-efficient baseline of the paper's evaluation.
//
// For every source node the index stores the quadtree of *first hops*: space
// is split into maximal blocks whose destinations all leave the source via
// the same adjacent vertex. A query walks the path hop by hop, locating the
// target in the current node's quadtree at each step — so distance and path
// queries cost the same (which is exactly the behaviour Figures 8/9 show
// for SILC). Preprocessing runs one Dijkstra per node (O(n² log n)) and the
// block count grows super-linearly, which is why the paper (and this
// reproduction) only runs SILC on the smaller datasets.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "routing/path.h"
#include "silc/quadtree.h"
#include "util/types.h"

namespace ah {

struct SilcBuildStats {
  double seconds = 0;
  std::size_t total_blocks = 0;
  /// Peak number of per-chunk block buffers live during the build — bounded
  /// by the claim window (O(build threads)), not by the chunk count, so the
  /// build's transient RSS no longer scales with the graph size.
  std::size_t max_live_chunks = 0;
  /// The claim window the build ran with (how far producers may run ahead
  /// of the in-order merge).
  std::size_t chunk_window = 0;
};

struct SilcParams {
  /// Worker threads for the per-source Dijkstra sweep (0 = the
  /// util/worker_pool.h WorkerThreads() default). The index is bit-identical
  /// at any thread count: sources are processed in fixed chunks whose block
  /// lists are merged in chunk order.
  std::size_t build_threads = 0;
};

class SilcIndex {
 public:
  /// Builds first-hop quadtrees for all sources. `g` must outlive the index.
  static SilcIndex Build(const Graph& g, const SilcParams& params = {});

  std::size_t NumNodes() const { return src_first_.size() - 1; }
  const SilcBuildStats& build_stats() const { return build_stats_; }

  /// Raw index tables, exposed so the build-determinism test can assert
  /// bit-identity across thread counts.
  const std::vector<QuadBlock>& blocks() const { return blocks_; }
  const std::vector<std::uint64_t>& src_offsets() const { return src_first_; }

  /// First hop on the shortest path s→t (kInvalidNode if t is unreachable
  /// or s == t).
  NodeId NextHop(NodeId s, NodeId t) const;

  /// Distance by walking the next-hop chain (kInfDist if unreachable).
  Dist Distance(NodeId s, NodeId t) const;

  /// Full path by walking the next-hop chain.
  PathResult Path(NodeId s, NodeId t) const;

  std::size_t SizeBytes() const;

 private:
  std::span<const QuadBlock> BlocksOf(NodeId s) const {
    return {blocks_.data() + src_first_[s], blocks_.data() + src_first_[s + 1]};
  }

  const Graph* graph_ = nullptr;
  std::vector<std::uint64_t> morton_;       // Morton code per node.
  std::vector<std::uint64_t> src_first_;    // Per-source block offsets.
  std::vector<QuadBlock> blocks_;
  SilcBuildStats build_stats_;
};

}  // namespace ah
