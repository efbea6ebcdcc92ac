#include "arterial/local_paths.h"

#include <algorithm>

namespace ah {

WindowProcessor::WindowProcessor(const LightGraph& graph,
                                 const std::vector<Point>& coords,
                                 const Nuance& nuance)
    : graph_(graph),
      coords_(coords),
      nuance_(nuance),
      local_of_(graph.NumNodes(), 0),
      local_stamp_(graph.NumNodes(), 0) {}

std::uint32_t WindowProcessor::Localize(NodeId global, const Cell& cell,
                                        bool inside) {
  if (local_stamp_[global] == round_) return local_of_[global];
  const std::uint32_t local = static_cast<std::uint32_t>(nodes_.size());
  local_stamp_[global] = round_;
  local_of_[global] = local;
  nodes_.push_back(LocalNode{global, cell, inside, !inside});
  if (adj_.size() <= local) adj_.emplace_back();
  adj_[local].clear();
  return local;
}

void WindowProcessor::RunLocalSearch(std::uint32_t source) {
  NextRound(search_round_, search_stamp_);
  ++num_searches_;
  heap_.Resize(nodes_.size());
  if (dist_.size() < nodes_.size()) {
    dist_.resize(nodes_.size());
    parent_.resize(nodes_.size());
    search_stamp_.resize(nodes_.size(), 0);
  }
  // Stale search_stamp_ entries never equal the new round (NextRound clears
  // them on wrap), so no reset is needed.
  heap_.Clear();
  dist_[source] = TieDist{0, 0};
  parent_[source] = 0xffffffffu;
  search_stamp_[source] = search_round_;
  heap_.PushOrDecrease(source, 0);
  while (!heap_.Empty()) {
    auto [key, u] = heap_.PopMin();
    const TieDist du = dist_[u];
    if (key > du.length) continue;  // Superseded entry.
    // Terminals absorb: only the source itself may expand from outside.
    if (!nodes_[u].inside && u != source) continue;
    for (const auto& [v, w] : adj_[u]) {
      const TieDist nd =
          du.Plus(w, nuance_.ArcNuance(nodes_[u].global, nodes_[v].global));
      if (search_stamp_[v] != search_round_ || nd < dist_[v]) {
        search_stamp_[v] = search_round_;
        dist_[v] = nd;
        parent_[v] = u;
        heap_.PushOrDecrease(v, nd.length);
      }
    }
  }
}

void WindowProcessor::CollectSpanningPaths(const Window& w,
                                           std::uint32_t source,
                                           BisectorAxis axis,
                                           std::vector<ArterialEdge>* out) {
  const Cell source_cell = nodes_[source].cell;
  for (std::uint32_t t = 0; t < nodes_.size(); ++t) {
    if (t == source || search_stamp_[t] != search_round_) continue;
    if (nodes_[source].terminal && nodes_[t].terminal) continue;
    if (!w.QualifiesAsSpanningEndpoints(source_cell, nodes_[t].cell, axis)) {
      continue;
    }
    // Walk the parent chain; report the first bisector-crossing edge seen
    // from the target side (the paper allows an arbitrary choice when the
    // path crosses several times).
    std::uint32_t cur = t;
    while (parent_[cur] != 0xffffffffu) {
      const std::uint32_t prev = parent_[cur];
      if (w.CrossesBisector(nodes_[prev].cell, nodes_[cur].cell, axis)) {
        out->push_back(
            ArterialEdge{nodes_[prev].global, nodes_[cur].global, axis});
        break;
      }
      cur = prev;
    }
  }
}

std::vector<ArterialEdge> WindowProcessor::Process(const SquareGrid& grid,
                                                   const Window& w,
                                                   const CellIndex& cells,
                                                   std::size_t max_sources) {
  NextRound(round_, local_stamp_);
  nodes_.clear();

  cells.CollectWindowNodes(w, &window_nodes_);
  std::vector<ArterialEdge> result;
  if (window_nodes_.empty()) return result;

  // Quick qualification precheck: a spanning path needs qualified cells on
  // both sides of some bisector. Terminals can extend by one cell beyond the
  // window, so treat border-strip occupancy as potentially qualified.
  bool west = false, east = false, south = false, north = false;
  for (NodeId v : window_nodes_) {
    const Cell c = grid.CellOf(coords_[v]);
    const std::int32_t rc = w.RelCol(c);
    const std::int32_t rr = w.RelRow(c);
    west |= rc <= 0;
    east |= rc >= 3;
    south |= rr <= 0;
    north |= rr >= 3;
  }
  const bool vertical_possible = west & east;
  const bool horizontal_possible = south & north;
  if (!vertical_possible && !horizontal_possible) return result;

  // Localize inside nodes, then wire the window-induced subgraph plus
  // one-hop-out terminals.
  for (NodeId v : window_nodes_) {
    Localize(v, grid.CellOf(coords_[v]), /*inside=*/true);
  }
  const std::size_t num_inside = nodes_.size();
  for (std::uint32_t lu = 0; lu < num_inside; ++lu) {
    const NodeId u = nodes_[lu].global;
    for (const Arc& a : graph_.OutArcs(u)) {
      std::uint32_t lv;
      if (local_stamp_[a.head] == round_ && nodes_[local_of_[a.head]].inside) {
        lv = local_of_[a.head];
      } else {
        lv = Localize(a.head, grid.CellOf(coords_[a.head]), /*inside=*/false);
      }
      adj_[lu].push_back({lv, a.weight});
    }
    // Terminal tails: nodes one hop outside with an arc into the window can
    // start a local path whose first edge crosses the boundary.
    for (const Arc& a : graph_.InArcs(u)) {
      if (local_stamp_[a.head] == round_ && nodes_[local_of_[a.head]].inside) {
        continue;  // Inside tail: its out-arc was (or will be) added above.
      }
      const std::uint32_t lt =
          Localize(a.head, grid.CellOf(coords_[a.head]), /*inside=*/false);
      adj_[lt].push_back({lu, a.weight});
    }
  }

  // One search per qualified endpoint covers both axes.
  std::vector<std::uint32_t> sources;
  for (std::uint32_t s = 0; s < nodes_.size(); ++s) {
    const Cell c = nodes_[s].cell;
    const std::int32_t rc = w.RelCol(c);
    const std::int32_t rr = w.RelRow(c);
    const bool v_q = vertical_possible && (rc <= 0 || rc >= 3);
    const bool h_q = horizontal_possible && (rr <= 0 || rr >= 3);
    if (v_q || h_q) sources.push_back(s);
  }
  const std::size_t step =
      sources.size() > max_sources
          ? (sources.size() + max_sources - 1) / max_sources
          : 1;
  for (std::size_t idx = 0; idx < sources.size(); idx += step) {
    const std::uint32_t s = sources[idx];
    const Cell c = nodes_[s].cell;
    const std::int32_t rc = w.RelCol(c);
    const std::int32_t rr = w.RelRow(c);
    const bool v_q = vertical_possible && (rc <= 0 || rc >= 3);
    const bool h_q = horizontal_possible && (rr <= 0 || rr >= 3);
    RunLocalSearch(s);
    if (v_q) CollectSpanningPaths(w, s, BisectorAxis::kVertical, &result);
    if (h_q) CollectSpanningPaths(w, s, BisectorAxis::kHorizontal, &result);
  }

  std::sort(result.begin(), result.end(),
            [](const ArterialEdge& a, const ArterialEdge& b) {
              if (a.tail != b.tail) return a.tail < b.tail;
              if (a.head != b.head) return a.head < b.head;
              return a.axis < b.axis;
            });
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return result;
}

}  // namespace ah
