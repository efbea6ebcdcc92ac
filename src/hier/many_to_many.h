// Many-to-many distance matrices over a contracted hierarchy (the bucket
// technique): one backward upward search per target t ∈ T stores (target,
// distance) bucket entries at every settled node; one forward upward search
// per source s ∈ S then min-combines over the buckets it touches. A |S|×|T|
// matrix costs O(|S|+|T|) upward searches instead of |S|·|T| bidirectional
// queries — the workload of the paper's §1 motivating scenario (ranking POI
// sets by network distance) and of every fleet-dispatch / travel-time-table
// request the server's `m` verb answers.
//
// Works on any SearchGraph (CH or AH); exact on any graph by the standard
// up-down path argument. Both phases parallelize with util/parallel.h:
// bucket construction over the targets (per-target raw entries, one
// canonical sort), the combine phase over the sources (each writing its own
// result row); every search uses its thread's long-lived scratch. Output is
// bit-identical at any thread count.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hier/search_graph.h"
#include "util/indexed_heap.h"
#include "util/types.h"

namespace ah {

/// Reusable per-thread state for one upward search (forward or backward):
/// heap plus timestamped distance labels, so back-to-back searches cost
/// O(#touched) cleanup, not O(n). Searches advance `round` with NextRound
/// (util/types.h), which clears `stamp` when the counter wraps.
struct UpwardSearchScratch {
  explicit UpwardSearchScratch(std::size_t num_nodes)
      : heap(num_nodes), dist(num_nodes, kInfDist), stamp(num_nodes, 0) {}

  IndexedHeap heap;
  std::vector<Dist> dist;
  std::vector<std::uint32_t> stamp;
  std::uint32_t round = 0;
};

/// CSR buckets for a fixed target set: entry (k, d) at node u means the
/// backward upward search from targets[k] settled u at distance d, i.e.
/// d(u → targets[k]) = d along a down-path. Immutable after construction;
/// any number of threads may combine against one instance concurrently.
class TargetBuckets {
 public:
  struct Entry {
    std::uint32_t target_index;
    Dist dist;
  };

  /// One backward upward search per target, chunked across `num_threads`
  /// workers (0 = the util/worker_pool.h WorkerThreads() default). The packed
  /// CSR is canonically sorted by (node, target_index), so the result is
  /// bit-identical at any thread count.
  TargetBuckets(const SearchGraph& sg, std::span<const NodeId> targets,
                std::size_t num_threads = 0);

  std::span<const Entry> BucketOf(NodeId u) const {
    return {entries_.data() + first_[u], entries_.data() + first_[u + 1]};
  }

  std::size_t NumEntries() const { return entries_.size(); }
  std::size_t NumTargets() const { return num_targets_; }

 private:
  std::vector<std::uint64_t> first_;  // size NumNodes() + 1
  std::vector<Entry> entries_;
  std::size_t num_targets_ = 0;
};

/// Forward upward search from `s`, min-combining `buckets` into `out`
/// (`out.size() == buckets.NumTargets()`, pre-filled with kInfDist by the
/// caller). Each settled node u contributes d_fwd(u) + bucket distance for
/// every entry in its bucket — the up-down path peaking at u.
void CombineFromSource(const SearchGraph& sg, const TargetBuckets& buckets,
                       NodeId s, UpwardSearchScratch& scratch,
                       std::span<Dist> out);

/// The many-to-many engine: buckets built once for a target set, then any
/// number of source batches answered against them. Immutable after
/// construction (DistancesFrom searches with each thread's own reused
/// scratch), so one instance may serve concurrent callers.
class ManyToMany {
 public:
  /// Preprocesses `targets` (see TargetBuckets). `num_threads` parallelizes
  /// the bucket construction only.
  ManyToMany(const SearchGraph& sg, std::vector<NodeId> targets,
             std::size_t num_threads = 0);

  const std::vector<NodeId>& targets() const { return targets_; }

  /// Row-major |sources| × |targets()| matrix: row i holds the distances
  /// from sources[i] to every target, kInfDist for unreachable cells.
  /// Sources fan out across `num_threads` workers (0 = WorkerThreads()),
  /// each writing its own disjoint rows — bit-identical at any thread
  /// count. Thread-safe (const).
  std::vector<Dist> DistancesFrom(std::span<const NodeId> sources,
                                  std::size_t num_threads = 0) const;

  /// Total bucket entries (space diagnostics).
  std::size_t NumBucketEntries() const { return buckets_.NumEntries(); }

 private:
  const SearchGraph& sg_;
  std::vector<NodeId> targets_;
  TargetBuckets buckets_;
};

}  // namespace ah
