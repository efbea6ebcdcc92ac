// Frozen-order repair kernel: weights-only re-contraction of an existing
// hierarchy over flat arrays.
//
// Witness-checked contraction is exact for ANY total node order, so after a
// weights-only graph change the live epoch's node order can be reused
// wholesale and the expensive greedy-order simulation skipped. This kernel
// goes one step further than re-running the dynamic ContractionEngine under
// a frozen order: because the order is known up front and the previous
// epoch's arc set is — by construction — a near-superset of the new one,
// the whole re-contraction runs over the previous topology laid out as
// static CSR arrays. No per-node adjacency vectors, no linear-scan
// add-or-improve, no detach bookkeeping; rank comparisons replace every
// "is this node still active / excluded" check.
//
// The equivalence argument, with r(v) the frozen rank of v:
//
//  * Processing nodes in ascending rank and relaxing each triangle
//    u→v→w at v's step reproduces the dynamic engine's weights exactly:
//    an arc (x,y) only ever improves through midpoints ranked below both
//    endpoints, and all of those have been processed by the time the arc
//    is read. At step r an arc's current weight therefore equals its
//    weight in the dynamic engine at the moment v is contracted.
//
//  * An arc "exists" at step r iff its current weight is finite: original
//    graph edges are seeded up front, and a previous-epoch shortcut
//    becomes finite exactly when its midpoint's step relaxes it — the
//    same moment the dynamic engine would have inserted it.
//
//  * Candidate pairs present in the previous topology are relaxed without
//    a witness search. Skipping a witness is always sound — it only
//    forgoes pruning a redundant arc, never adds a wrong one — and
//    distances are preserved either way. The repaired hierarchy may keep
//    a few shortcuts a from-scratch build would prune (the topology
//    tracks the previous epoch), and nothing resets that drift on its
//    own: under the default kFrozenOrder policy, api/index_registry.cc
//    rebuilds from scratch only when a repair throws (the fallback) or
//    when the operator selects kFromScratch. Measured on a 25,370-node
//    road graph, the ch index grows from 3.63 MB to 3.74 MB (+3%) over
//    nine repairs of 1% of the arcs each.
//
//  * Pairs NOT in the previous topology (rare after a weights-only
//    change) get the full treatment: a certificate replay when the
//    previous build recorded the witness path that pruned the pair
//    (hier/witness_certs.h — a few arc lookups instead of a search),
//    otherwise a hop-bounded witness prefilter, then a target-counted
//    Dijkstra witness search, all running over "arcs with finite weight
//    whose endpoints rank above r" — exactly the active overlay of the
//    dynamic engine. Survivors are kept in small per-node side lists
//    that participate in later candidate enumeration, relaxation and
//    witness searches like any other arc.
//
// The result is the full arc set of the repaired hierarchy, ready to feed
// a SearchGraph under the frozen rank permutation.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "hier/contraction.h"
#include "hier/search_graph.h"
#include "hier/witness_certs.h"

namespace ah {

struct RepairResult {
  /// Every arc of the repaired hierarchy (original edges and shortcuts),
  /// with final weights and recomputed midpoints.
  std::vector<HierArc> arcs;
  /// Arcs added or improved during the repair (parity with
  /// ContractionEngine::NumShortcutsAdded semantics).
  std::size_t shortcuts = 0;
  /// Witness-search effort — the cost the hinted topology avoids.
  std::size_t witness_searches = 0;
  std::size_t witness_settled = 0;
  /// Certificate replays that pruned a pair without a search.
  std::size_t cert_replays = 0;
  /// Certificate table for the NEXT repair: one replayable witness per
  /// pair this repair pruned by certificate or search. In-memory only.
  std::shared_ptr<const WitnessCertTable> certs;
};

/// Re-contracts `g` under the frozen node order of `prev`, reusing the
/// previous topology as repair hints. `g` must have the same node set and
/// arc structure as the graph `prev` was built from (weights may differ
/// arbitrarily); throws std::invalid_argument otherwise, which rebuild
/// callers treat as "fall back to a from-scratch build". `certs`, if
/// non-null, is the finalized certificate table the previous build or
/// repair emitted; pairs it covers skip their witness search when the
/// recorded witness still holds. Null is always valid (first repair after
/// a Load, or a backend that does not record certificates).
RepairResult RepairContraction(const Graph& g, const SearchGraph& prev,
                               const ContractionParams& params = {},
                               const WitnessCertTable* certs = nullptr);

}  // namespace ah
