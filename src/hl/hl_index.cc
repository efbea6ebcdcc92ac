#include "hl/hl_index.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <utility>

#include "hier/contraction.h"
#include "hier/greedy_order.h"
#include "util/parallel.h"
#include "util/serialize.h"
#include "util/timer.h"

namespace ah {

namespace {

/// Hubs are processed in fixed rounds of this many: searches within one
/// round prune only against labels committed before the round, so the label
/// set depends on this constant partition — never on the thread count or on
/// scheduling. 32 keeps every worker busy at the WorkerThreads() cap of 16
/// while bounding how many hubs skip pruning against each other.
constexpr std::size_t kHubRound = 32;

/// One surviving (non-pruned) settle of a hub search, in settle order —
/// parents always precede children.
struct DeltaEntry {
  NodeId node;
  NodeId parent;
  Dist dist;
};

struct HubDelta {
  std::vector<DeltaEntry> in;   // forward search: hub → node
  std::vector<DeltaEntry> out;  // backward search: node → hub
};

/// Walks the concatenation of a node's committed label array and its staged
/// labels from earlier hubs of the current round. Staged ranks are strictly
/// larger than every committed rank, so the concatenation stays sorted.
struct LabelCursor {
  std::span<const HlLabel> a, b;
  std::size_t i = 0;
  bool AtEnd() const { return i >= a.size() + b.size(); }
  const HlLabel& Cur() const { return i < a.size() ? a[i] : b[i - a.size()]; }
  void Next() { ++i; }
};

/// The 2-hop query: min over common hubs of dout + din.
Dist MergeJoinUB(LabelCursor x, LabelCursor y) {
  Dist best = kInfDist;
  while (!x.AtEnd() && !y.AtEnd()) {
    const Rank rx = x.Cur().hub;
    const Rank ry = y.Cur().hub;
    if (rx == ry) {
      best = std::min(best, x.Cur().dist + y.Cur().dist);
      x.Next();
      y.Next();
    } else if (rx < ry) {
      x.Next();
    } else {
      y.Next();
    }
  }
  return best;
}

/// Per-worker pruned Dijkstra scratch: timestamped labels + lazy-deletion
/// heap, reused across every hub the worker runs.
class PrunedSearch {
 public:
  explicit PrunedSearch(std::size_t n)
      : dist_(n, 0), parent_(n, kInvalidNode), stamp_(n, 0) {}

  /// Pruned search from `hub` over out-arcs (forward) or in-arcs
  /// (backward). A node settled at distance d with covered(v, d) true is
  /// pruned: recorded nowhere and never relaxed from — so every surviving
  /// node's whole parent chain also survives (only labeled nodes relax).
  template <typename CoveredFn>
  void Run(const Graph& g, NodeId hub, bool forward, CoveredFn&& covered,
           std::vector<DeltaEntry>* delta) {
    NextRound(round_, stamp_);
    dist_[hub] = 0;
    parent_[hub] = kInvalidNode;
    stamp_[hub] = round_;
    heap_.push({0, hub});
    while (!heap_.empty()) {
      const auto [d, v] = heap_.top();
      heap_.pop();
      if (d != dist_[v] || stamp_[v] != round_) continue;  // stale entry
      if (v != hub && covered(v, d)) continue;  // pruned: no label, no relax
      delta->push_back({v, parent_[v], d});
      for (const Arc& a : forward ? g.OutArcs(v) : g.InArcs(v)) {
        const Dist nd = d + a.weight;
        if (stamp_[a.head] != round_ || nd < dist_[a.head]) {
          stamp_[a.head] = round_;
          dist_[a.head] = nd;
          parent_[a.head] = v;
          heap_.push({nd, a.head});
        }
      }
    }
  }

 private:
  std::priority_queue<std::pair<Dist, NodeId>,
                      std::vector<std::pair<Dist, NodeId>>,
                      std::greater<>>
      heap_;
  std::vector<Dist> dist_;
  std::vector<NodeId> parent_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t round_ = 0;
};

/// Binary search for the label with the given hub rank; nullptr if absent.
const HlLabel* FindLabel(std::span<const HlLabel> labels, Rank hub) {
  const auto it = std::lower_bound(
      labels.begin(), labels.end(), hub,
      [](const HlLabel& l, Rank r) { return l.hub < r; });
  if (it == labels.end() || it->hub != hub) return nullptr;
  return &*it;
}

}  // namespace

HlIndex HlIndex::Build(const Graph& g, const HlParams& params) {
  Timer timer;
  const std::size_t n = g.NumNodes();

  // Hub order: importance-descending = the reverse of the greedy
  // contraction order CH builds its hierarchy from (last contracted = most
  // important = rank 0).
  std::vector<NodeId> hub_of_rank;
  {
    ContractionEngine engine(n, ArcsOf(g), ContractionParams{});
    std::vector<NodeId> all(n);
    std::iota(all.begin(), all.end(), 0);
    const std::vector<NodeId> order =
        ContractGreedySubset(engine, all, GreedyOrderParams{});
    hub_of_rank.assign(order.rbegin(), order.rend());
  }

  HlIndex index = BuildWithHubOrder(g, std::move(hub_of_rank), params);
  index.build_stats_.seconds = timer.Seconds();
  return index;
}

HlIndex HlIndex::RebuildWithFrozenOrder(const Graph& g, const HlIndex& previous,
                                        const HlParams& params) {
  Timer timer;
  if (g.NumNodes() != previous.NumNodes()) {
    throw std::invalid_argument(
        "HlIndex::RebuildWithFrozenOrder: node count changed");
  }
  HlIndex index = BuildWithHubOrder(g, previous.hub_of_rank_, params);
  index.build_stats_.seconds = timer.Seconds();
  return index;
}

HlIndex HlIndex::BuildWithHubOrder(const Graph& g,
                                   std::vector<NodeId> hub_of_rank,
                                   const HlParams& params) {
  HlIndex index;
  const std::size_t n = g.NumNodes();
  index.hub_of_rank_ = std::move(hub_of_rank);

  const std::size_t threads =
      params.build_threads == 0 ? WorkerThreads() : params.build_threads;
  const std::size_t window = std::max<std::size_t>(2, 2 * threads);

  // Committed labels (every rank before the current round): the only thing
  // in-flight searches read. Staged labels: this round's commits, written
  // and read exclusively by the serial committer, published at the round
  // barrier — so commits never race the searches.
  std::vector<std::vector<HlLabel>> in_committed(n), out_committed(n);
  std::vector<std::vector<HlLabel>> in_staged(n), out_staged(n);
  std::vector<NodeId> touched_in, touched_out;

  std::vector<std::unique_ptr<PrunedSearch>> scratch(
      std::max<std::size_t>(1, std::min(threads, kHubRound)));
  std::vector<HubDelta> slots(std::max<std::size_t>(
      1, std::min(window, std::min(kHubRound, std::max<std::size_t>(1, n)))));

  // Commit-time scratch: marks which nodes of the current delta survived,
  // so dropping a covered node drops its whole subtree with it (path
  // recovery walks parent chains — a kept child may never point at a
  // dropped parent).
  std::vector<std::uint32_t> kept_stamp(n, 0);
  std::uint32_t commit_round = 0;
  std::size_t max_live = 0;

  for (std::size_t round_start = 0; round_start < n;
       round_start += kHubRound) {
    const std::size_t round_size = std::min(kHubRound, n - round_start);

    const WindowedChunkStats round_stats = ParallelChunksWindowed(
        round_size, 1, window,
        [&](std::size_t c, std::size_t, std::size_t, std::size_t tid) {
          if (!scratch[tid]) scratch[tid] = std::make_unique<PrunedSearch>(n);
          const Rank r = static_cast<Rank>(round_start + c);
          const NodeId hub = index.hub_of_rank_[r];
          HubDelta& delta = slots[c % slots.size()];
          delta.in.clear();
          delta.out.clear();
          scratch[tid]->Run(
              g, hub, /*forward=*/true,
              [&](NodeId v, Dist d) {
                return MergeJoinUB(LabelCursor{out_committed[hub], {}},
                                   LabelCursor{in_committed[v], {}}) <= d;
              },
              &delta.in);
          scratch[tid]->Run(
              g, hub, /*forward=*/false,
              [&](NodeId v, Dist d) {
                return MergeJoinUB(LabelCursor{out_committed[v], {}},
                                   LabelCursor{in_committed[hub], {}}) <= d;
              },
              &delta.out);
        },
        [&](std::size_t c, std::size_t, std::size_t) {
          // Serial commit in hub-rank order. Each entry is re-pruned
          // against everything committed so far — including earlier hubs
          // of this round, which the searches could not see — and covered
          // subtrees are dropped whole (the cascade keeps parent chains
          // intact, and coverage by a higher-ranked hub makes the subtree's
          // labels redundant by the standard pruning argument).
          const Rank r = static_cast<Rank>(round_start + c);
          const NodeId hub = index.hub_of_rank_[r];
          HubDelta& delta = slots[c % slots.size()];
          NextRound(commit_round, kept_stamp);
          for (const DeltaEntry& e : delta.in) {
            const bool root = e.node == hub;
            if (!root && kept_stamp[e.parent] != commit_round) continue;
            if (!root &&
                MergeJoinUB(
                    LabelCursor{out_committed[hub], out_staged[hub]},
                    LabelCursor{in_committed[e.node], in_staged[e.node]}) <=
                    e.dist) {
              continue;
            }
            kept_stamp[e.node] = commit_round;
            if (in_staged[e.node].empty()) touched_in.push_back(e.node);
            in_staged[e.node].push_back(HlLabel{r, e.parent, e.dist});
          }
          NextRound(commit_round, kept_stamp);
          for (const DeltaEntry& e : delta.out) {
            const bool root = e.node == hub;
            if (!root && kept_stamp[e.parent] != commit_round) continue;
            if (!root &&
                MergeJoinUB(
                    LabelCursor{out_committed[e.node], out_staged[e.node]},
                    LabelCursor{in_committed[hub], in_staged[hub]}) <=
                    e.dist) {
              continue;
            }
            kept_stamp[e.node] = commit_round;
            if (out_staged[e.node].empty()) touched_out.push_back(e.node);
            out_staged[e.node].push_back(HlLabel{r, e.parent, e.dist});
          }
        },
        threads);
    max_live = std::max(max_live, round_stats.max_live_chunks);

    // Round barrier: publish the staged labels so the next round's searches
    // prune against them. Ranks only grow, so appending keeps the arrays
    // sorted by hub rank.
    for (const NodeId v : touched_in) {
      in_committed[v].insert(in_committed[v].end(), in_staged[v].begin(),
                             in_staged[v].end());
      in_staged[v].clear();
    }
    touched_in.clear();
    for (const NodeId v : touched_out) {
      out_committed[v].insert(out_committed[v].end(), out_staged[v].begin(),
                              out_staged[v].end());
      out_staged[v].clear();
    }
    touched_out.clear();
  }

  // Flatten the per-node vectors into the query-time CSR tables.
  index.in_first_.assign(n + 1, 0);
  index.out_first_.assign(n + 1, 0);
  std::size_t total_in = 0, total_out = 0;
  for (NodeId v = 0; v < n; ++v) {
    total_in += in_committed[v].size();
    total_out += out_committed[v].size();
  }
  index.in_labels_.reserve(total_in);
  index.out_labels_.reserve(total_out);
  for (NodeId v = 0; v < n; ++v) {
    index.in_first_[v] = index.in_labels_.size();
    index.in_labels_.insert(index.in_labels_.end(), in_committed[v].begin(),
                            in_committed[v].end());
    index.out_first_[v] = index.out_labels_.size();
    index.out_labels_.insert(index.out_labels_.end(),
                             out_committed[v].begin(), out_committed[v].end());
  }
  index.in_first_[n] = index.in_labels_.size();
  index.out_first_[n] = index.out_labels_.size();

  index.build_stats_.in_labels = index.in_labels_.size();
  index.build_stats_.out_labels = index.out_labels_.size();
  index.build_stats_.max_live_label_buffers = max_live;
  index.build_stats_.label_window = window;
  return index;
}

Dist HlIndex::Distance(NodeId s, NodeId t) const {
  if (s == t) return 0;
  // The serving hot path: a raw two-pointer merge join over the flat label
  // arrays, free of the LabelCursor segment checks the build needs.
  const HlLabel* a = out_labels_.data() + out_first_[s];
  const HlLabel* const a_end = out_labels_.data() + out_first_[s + 1];
  const HlLabel* b = in_labels_.data() + in_first_[t];
  const HlLabel* const b_end = in_labels_.data() + in_first_[t + 1];
  Dist best = kInfDist;
  while (a != a_end && b != b_end) {
    if (a->hub == b->hub) {
      const Dist d = a->dist + b->dist;
      if (d < best) best = d;
      ++a;
      ++b;
    } else if (a->hub < b->hub) {
      ++a;
    } else {
      ++b;
    }
  }
  return best;
}

PathResult HlIndex::Path(NodeId s, NodeId t) const {
  PathResult result;
  if (s == t) {
    result.nodes = {s};
    result.length = 0;
    return result;
  }
  // Merge join tracking the minimizing hub (ties: lowest rank).
  const std::span<const HlLabel> a = OutLabels(s);
  const std::span<const HlLabel> b = InLabels(t);
  std::size_t i = 0, j = 0;
  Dist best = kInfDist;
  Rank best_rank = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].hub == b[j].hub) {
      const Dist d = a[i].dist + b[j].dist;
      if (d < best) {
        best = d;
        best_rank = a[i].hub;
      }
      ++i;
      ++j;
    } else if (a[i].hub < b[j].hub) {
      ++i;
    } else {
      ++j;
    }
  }
  if (best == kInfDist) return result;

  const NodeId hub = hub_of_rank_[best_rank];
  // Forward leg s → hub: every chain node carries an out-label for the hub
  // (pruned nodes are never relaxed from), each hop one binary search.
  result.nodes.push_back(s);
  NodeId u = s;
  for (std::size_t guard = 0; u != hub; ++guard) {
    const HlLabel* label = FindLabel(OutLabels(u), best_rank);
    if (label == nullptr || label->parent == kInvalidNode ||
        guard > NumNodes()) {
      return PathResult{};  // corrupt index; never hit by a built/loaded one
    }
    u = label->parent;
    result.nodes.push_back(u);
  }
  // Backward leg hub → t, walked from t up the in-label parents.
  std::vector<NodeId> tail;
  u = t;
  for (std::size_t guard = 0; u != hub; ++guard) {
    tail.push_back(u);
    const HlLabel* label = FindLabel(InLabels(u), best_rank);
    if (label == nullptr || label->parent == kInvalidNode ||
        guard > NumNodes()) {
      return PathResult{};
    }
    u = label->parent;
  }
  result.nodes.insert(result.nodes.end(), tail.rbegin(), tail.rend());
  result.length = best;
  return result;
}

std::size_t HlIndex::SizeBytes() const {
  return hub_of_rank_.size() * sizeof(NodeId) +
         (in_first_.size() + out_first_.size()) * sizeof(std::uint64_t) +
         (in_labels_.size() + out_labels_.size()) * sizeof(HlLabel);
}

void HlIndex::Save(std::ostream& out) const {
  BinaryWriter w(out);
  w.Magic("AHHL", 1);
  w.Vector(hub_of_rank_);
  w.Vector(in_first_);
  w.Vector(in_labels_);
  w.Vector(out_first_);
  w.Vector(out_labels_);
  w.Pod(build_stats_.seconds);
  w.Pod<std::uint64_t>(build_stats_.max_live_label_buffers);
  w.Pod<std::uint64_t>(build_stats_.label_window);
}

HlIndex HlIndex::Load(std::istream& in) {
  BinaryReader r(in);
  r.Magic("AHHL", 1);
  HlIndex index;
  index.hub_of_rank_ = r.Vector<NodeId>();
  index.in_first_ = r.Vector<std::uint64_t>();
  index.in_labels_ = r.Vector<HlLabel>();
  index.out_first_ = r.Vector<std::uint64_t>();
  index.out_labels_ = r.Vector<HlLabel>();
  index.build_stats_.seconds = r.Pod<double>();
  index.build_stats_.max_live_label_buffers = r.Pod<std::uint64_t>();
  index.build_stats_.label_window = r.Pod<std::uint64_t>();
  index.build_stats_.in_labels = index.in_labels_.size();
  index.build_stats_.out_labels = index.out_labels_.size();
  const std::size_t n = index.hub_of_rank_.size();
  if (index.in_first_.size() != n + 1 || index.out_first_.size() != n + 1 ||
      (n > 0 && (index.in_first_.back() != index.in_labels_.size() ||
                 index.out_first_.back() != index.out_labels_.size()))) {
    throw std::runtime_error("HlIndex::Load: inconsistent label tables");
  }
  return index;
}

}  // namespace ah
