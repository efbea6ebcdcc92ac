#include "checker.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <utility>

namespace perfbench {

RefGraph::RefGraph(const ah::Graph& g) {
  const std::size_t n = g.NumNodes();
  first_.assign(n + 1, 0);
  head_.reserve(g.NumArcs());
  weight_.reserve(g.NumArcs());
  for (NodeId u = 0; u < n; ++u) {
    for (const ah::Arc& a : g.OutArcs(u)) {
      head_.push_back(a.head);
      weight_.push_back(a.weight);
    }
    first_[u + 1] = head_.size();
  }
}

bool RefGraph::SetWeight(NodeId u, NodeId v, Weight w) {
  if (u >= NumNodes()) return false;
  bool found = false;
  for (std::uint64_t i = first_[u]; i < first_[u + 1]; ++i) {
    if (head_[i] == v) {
      weight_[i] = w;
      found = true;
    }
  }
  return found;
}

Dist RefGraph::ArcWeight(NodeId u, NodeId v) const {
  Dist best = kUnreachable;
  if (u >= NumNodes()) return best;
  for (std::uint64_t i = first_[u]; i < first_[u + 1]; ++i) {
    if (head_[i] == v) best = std::min<Dist>(best, weight_[i]);
  }
  return best;
}

void RefGraph::Distances(NodeId s, std::vector<Dist>* dist, Dist bound) const {
  dist->assign(NumNodes(), kUnreachable);
  using Item = std::pair<Dist, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  (*dist)[s] = 0;
  heap.emplace(0, s);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d != (*dist)[u]) continue;  // stale entry
    if (d > bound) break;
    for (std::uint64_t i = first_[u]; i < first_[u + 1]; ++i) {
      const Dist nd = d + weight_[i];
      if (nd < (*dist)[head_[i]]) {
        (*dist)[head_[i]] = nd;
        heap.emplace(nd, head_[i]);
      }
    }
  }
}

std::string CheckPath(const RefGraph& g, NodeId s, NodeId t, Dist expected,
                      Dist reported_length, std::span<const NodeId> nodes) {
  if (reported_length != expected) {
    return "length " + std::to_string(reported_length) + " != reference " +
           std::to_string(expected);
  }
  if (nodes.empty()) return "empty path";
  if (nodes.front() != s) return "path does not start at s";
  if (nodes.back() != t) return "path does not end at t";
  Dist sum = 0;
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
    const Dist w = g.ArcWeight(nodes[i], nodes[i + 1]);
    if (w == kUnreachable) {
      return "hop " + std::to_string(nodes[i]) + "->" +
             std::to_string(nodes[i + 1]) + " is not an arc";
    }
    sum += w;
  }
  if (sum != reported_length) {
    return "arc weights sum to " + std::to_string(sum) + ", reply says " +
           std::to_string(reported_length);
  }
  return {};
}

}  // namespace perfbench
