#include "hier/many_to_many.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "util/parallel.h"

namespace ah {

namespace {

using RawEntry = std::pair<NodeId, TargetBuckets::Entry>;

/// The calling thread's scratch, kept across calls (matrix fan-outs run on
/// long-lived pool threads) and grown to the largest graph seen.
UpwardSearchScratch& ThreadScratch(std::size_t num_nodes) {
  thread_local std::unique_ptr<UpwardSearchScratch> scratch;
  if (scratch == nullptr || scratch->dist.size() < num_nodes) {
    scratch = std::make_unique<UpwardSearchScratch>(num_nodes);
  }
  return *scratch;
}

/// Backward upward search from targets[k], appending one (node, entry) pair
/// per settled node.
void FillBucketsFor(const SearchGraph& sg, NodeId target, std::uint32_t k,
                    UpwardSearchScratch& scratch, std::vector<RawEntry>* raw) {
  NextRound(scratch.round, scratch.stamp);
  scratch.heap.Clear();
  scratch.stamp[target] = scratch.round;
  scratch.dist[target] = 0;
  scratch.heap.PushOrDecrease(target, 0);
  while (!scratch.heap.Empty()) {
    auto [d, u] = scratch.heap.PopMin();
    raw->push_back({u, TargetBuckets::Entry{k, d}});
    for (const UpArc& a : sg.UpIn(u)) {
      const Dist nd = d + a.weight;
      if (scratch.stamp[a.node] != scratch.round || nd < scratch.dist[a.node]) {
        scratch.stamp[a.node] = scratch.round;
        scratch.dist[a.node] = nd;
        scratch.heap.PushOrDecrease(a.node, nd);
      }
    }
  }
}

}  // namespace

TargetBuckets::TargetBuckets(const SearchGraph& sg,
                             std::span<const NodeId> targets,
                             std::size_t num_threads)
    : num_targets_(targets.size()) {
  const std::size_t n = sg.NumNodes();
  first_.assign(n + 1, 0);
  if (targets.empty()) return;

  // Per-target raw entries, each filled by one search on its thread's
  // scratch. The canonical sort below makes the packed CSR independent of
  // which participant ran which target, and when.
  std::vector<std::vector<RawEntry>> target_raw(targets.size());
  ParallelFor(targets.size(), num_threads, [&](std::size_t k, std::size_t) {
    FillBucketsFor(sg, targets[k], static_cast<std::uint32_t>(k),
                   ThreadScratch(n), &target_raw[k]);
  });

  std::size_t total = 0;
  for (const auto& part : target_raw) total += part.size();
  std::vector<RawEntry> raw;
  raw.reserve(total);
  for (auto& part : target_raw) {
    raw.insert(raw.end(), part.begin(), part.end());
    part.clear();
    part.shrink_to_fit();
  }
  // (node, target_index) keys are unique — each backward search settles a
  // node at most once — so this sort is a total order.
  std::sort(raw.begin(), raw.end(), [](const RawEntry& a, const RawEntry& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second.target_index < b.second.target_index;
  });
  for (const auto& [node, entry] : raw) ++first_[node + 1];
  for (std::size_t v = 0; v < n; ++v) first_[v + 1] += first_[v];
  entries_.resize(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) entries_[i] = raw[i].second;
}

void CombineFromSource(const SearchGraph& sg, const TargetBuckets& buckets,
                       NodeId s, UpwardSearchScratch& scratch,
                       std::span<Dist> out) {
  NextRound(scratch.round, scratch.stamp);
  scratch.heap.Clear();
  scratch.stamp[s] = scratch.round;
  scratch.dist[s] = 0;
  scratch.heap.PushOrDecrease(s, 0);
  while (!scratch.heap.Empty()) {
    auto [d, u] = scratch.heap.PopMin();
    for (const TargetBuckets::Entry& entry : buckets.BucketOf(u)) {
      const Dist via = d + entry.dist;
      if (via < out[entry.target_index]) out[entry.target_index] = via;
    }
    for (const UpArc& a : sg.UpOut(u)) {
      const Dist nd = d + a.weight;
      if (scratch.stamp[a.node] != scratch.round || nd < scratch.dist[a.node]) {
        scratch.stamp[a.node] = scratch.round;
        scratch.dist[a.node] = nd;
        scratch.heap.PushOrDecrease(a.node, nd);
      }
    }
  }
}

ManyToMany::ManyToMany(const SearchGraph& sg, std::vector<NodeId> targets,
                       std::size_t num_threads)
    : sg_(sg),
      targets_(std::move(targets)),
      buckets_(sg, targets_, num_threads) {}

std::vector<Dist> ManyToMany::DistancesFrom(std::span<const NodeId> sources,
                                            std::size_t num_threads) const {
  const std::size_t num_targets = targets_.size();
  std::vector<Dist> result(sources.size() * num_targets, kInfDist);
  if (result.empty()) return result;
  // Row i of the result belongs to sources[i] alone, so workers write
  // disjoint ranges and the min-combine per row is a pure function of the
  // (immutable) buckets — no merge step, deterministic at any thread count.
  ParallelFor(sources.size(), num_threads, [&](std::size_t i, std::size_t) {
    CombineFromSource(sg_, buckets_, sources[i], ThreadScratch(sg_.NumNodes()),
                      {result.data() + i * num_targets, num_targets});
  });
  return result;
}

}  // namespace ah
