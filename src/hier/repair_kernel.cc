#include "hier/repair_kernel.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "util/indexed_heap.h"

namespace ah {
namespace {

// See repair_kernel.h for the equivalence argument this implements.
//
// Layout notes: the previous topology is a per-tail CSR with sorted heads
// (positions are arc ids; pair lookups are one binary search). Each arc
// also appears in exactly one out-adjacency bucket and one in-adjacency
// bucket, as compact {node, weight} entries with the weight INLINE —
// witness searches touch nothing but these 8-byte entries, which is what
// makes the kernel faster than re-running the dynamic engine. An inline
// weight of kMaxWeight means "does not exist in this epoch (yet)";
// triangle relaxation updates both mirrors through per-arc position
// tables. Each bucket stores its upward arcs first, then its downward
// arcs sorted by the other endpoint's rank descending, so the active
// sub-bucket at step r is "all of the up part, then scan the down part
// until rank <= r".
class RepairKernel {
 public:
  RepairKernel(const Graph& g, const SearchGraph& prev,
               const ContractionParams& params, const WitnessCertTable* certs)
      : params_(params),
        n_(g.NumNodes()),
        in_certs_(certs),
        heap_(g.NumNodes()),
        dist_(g.NumNodes(), kInfDist),
        stamp_(g.NumNodes(), 0),
        parent_(g.NumNodes(), kInvalidNode),
        parent_stamp_(g.NumNodes(), 0),
        target_stamp_(g.NumNodes(), 0) {
    if (prev.NumNodes() != n_) {
      throw std::invalid_argument("RepairContraction: node count changed");
    }
    rank_.resize(n_);
    order_.assign(n_, kInvalidNode);
    for (NodeId v = 0; v < n_; ++v) {
      const Rank r = prev.RankOf(v);
      rank_[v] = r;
      if (r >= n_ || order_[r] != kInvalidNode) {
        throw std::invalid_argument(
            "RepairContraction: rank not a permutation");
      }
      order_[r] = v;
    }
    BuildTopology(g, prev);
    side_out_.resize(n_);
    side_in_.resize(n_);
    if (in_certs_ != nullptr) {
      out_certs_.Reserve(in_certs_->NumCerts(), in_certs_->PoolSize());
    }
  }

  RepairResult Run() {
    for (Rank r = 0; r < n_; ++r) Step(r);
    RepairResult res = Assemble();
    out_certs_.Finalize(n_);
    res.certs = std::make_shared<const WitnessCertTable>(std::move(out_certs_));
    return res;
  }

 private:
  // One adjacency entry. weight == kMaxWeight means the arc is not part
  // of the hierarchy in this epoch (shortcut slot not yet regenerated).
  struct Ent {
    NodeId node;    // The other endpoint.
    Weight weight;  // Current weight, inline for search locality.
  };
  struct SideOut {
    NodeId head;
    Weight weight;
    NodeId mid;
  };
  struct SideIn {
    NodeId tail;
    Weight weight;
  };
  struct CandRec {
    NodeId w;
    Dist via;
    std::uint32_t id;  // Topology arc id, or kInvalidEdge for a fresh pair.
    bool pruned;
  };
  struct Target {
    NodeId w;
    Dist via;
    std::uint32_t cand_index;
  };

  void BuildTopology(const Graph& g, const SearchGraph& prev) {
    // Pass 1: count per tail, prefix-sum, fill heads, sort each bucket.
    topo_first_.assign(n_ + 1, 0);
    for (NodeId v = 0; v < n_; ++v) {
      topo_first_[v + 1] += prev.UpOut(v).size();
      for (const UpArc& ua : prev.UpIn(v)) topo_first_[ua.node + 1] += 1;
    }
    for (std::size_t v = 0; v < n_; ++v) topo_first_[v + 1] += topo_first_[v];
    const std::size_t m = topo_first_[n_];
    if (m >= kInvalidEdge) {
      throw std::invalid_argument("RepairContraction: too many arcs");
    }
    topo_head_.resize(m);
    {
      std::vector<std::uint64_t> cur(topo_first_.begin(),
                                     topo_first_.end() - 1);
      for (NodeId v = 0; v < n_; ++v) {
        for (const UpArc& ua : prev.UpOut(v)) topo_head_[cur[v]++] = ua.node;
        for (const UpArc& ua : prev.UpIn(v)) topo_head_[cur[ua.node]++] = v;
      }
    }
    for (NodeId v = 0; v < n_; ++v) {
      std::sort(topo_head_.begin() + topo_first_[v],
                topo_head_.begin() + topo_first_[v + 1]);
    }

    // Pass 2: adjacency buckets — per node, upward arcs first, then
    // downward arcs (sorted by the other endpoint's rank, descending),
    // plus the id -> entry position tables relaxation writes through.
    out_first_.assign(n_ + 1, 0);
    in_first_.assign(n_ + 1, 0);
    for (NodeId u = 0; u < n_; ++u) {
      for (std::uint64_t i = topo_first_[u]; i < topo_first_[u + 1]; ++i) {
        ++out_first_[u + 1];
        ++in_first_[topo_head_[i] + 1];
      }
    }
    for (std::size_t v = 0; v < n_; ++v) {
      out_first_[v + 1] += out_first_[v];
      in_first_[v + 1] += in_first_[v];
    }
    out_ent_.resize(m);
    in_ent_.resize(m);
    out_pos_.resize(m);
    in_pos_.resize(m);
    out_split_.assign(n_, 0);
    in_split_.assign(n_, 0);
    // Order entries up-part-first by doing two sweeps per direction.
    {
      std::vector<std::uint64_t> oc(out_first_.begin(), out_first_.end() - 1);
      std::vector<std::uint64_t> ic(in_first_.begin(), in_first_.end() - 1);
      // Sweep A: upward arcs (other endpoint ranks higher).
      for (NodeId u = 0; u < n_; ++u) {
        for (std::uint64_t i = topo_first_[u]; i < topo_first_[u + 1]; ++i) {
          const NodeId w = topo_head_[i];
          const auto id = static_cast<std::uint32_t>(i);
          if (rank_[w] > rank_[u]) {
            out_ent_[oc[u]] = Ent{w, kMaxWeight};
            out_pos_[id] = static_cast<std::uint32_t>(oc[u]++);
          }
          if (rank_[u] > rank_[w]) {
            in_ent_[ic[w]] = Ent{u, kMaxWeight};
            in_pos_[id] = static_cast<std::uint32_t>(ic[w]++);
          }
        }
      }
      for (NodeId v = 0; v < n_; ++v) {
        out_split_[v] = oc[v];
        in_split_[v] = ic[v];
      }
      // Sweep B: downward arcs. Each bucket's down-part must end up sorted
      // by the other endpoint's rank DESCENDING, so instead of sorting,
      // visit the lower-ranked endpoint in rank-descending order and
      // append — the buckets come out sorted by construction (and the
      // position tables stay valid, no rebuild). The out sweep needs the
      // arcs grouped by head; build that grouping once.
      struct TailArc {
        NodeId tail;
        std::uint32_t id;
      };
      std::vector<std::uint64_t> ht_first(n_ + 1, 0);
      for (std::uint64_t i = 0; i < m; ++i) ++ht_first[topo_head_[i] + 1];
      for (std::size_t v = 0; v < n_; ++v) ht_first[v + 1] += ht_first[v];
      std::vector<TailArc> ht(m);
      {
        std::vector<std::uint64_t> hc(ht_first.begin(), ht_first.end() - 1);
        for (NodeId u = 0; u < n_; ++u) {
          for (std::uint64_t i = topo_first_[u]; i < topo_first_[u + 1];
               ++i) {
            ht[hc[topo_head_[i]]++] =
                TailArc{u, static_cast<std::uint32_t>(i)};
          }
        }
      }
      for (Rank rr = n_; rr-- > 0;) {
        const NodeId x = order_[rr];
        // Arcs u→x with rank(u) > rank(x): x goes in u's out down-part.
        for (std::uint64_t j = ht_first[x]; j < ht_first[x + 1]; ++j) {
          const NodeId u = ht[j].tail;
          if (rank_[u] > rr) {
            out_ent_[oc[u]] = Ent{x, kMaxWeight};
            out_pos_[ht[j].id] = static_cast<std::uint32_t>(oc[u]++);
          }
        }
        // Arcs x→y with rank(y) > rank(x): x goes in y's in down-part.
        for (std::uint64_t i = topo_first_[x]; i < topo_first_[x + 1]; ++i) {
          const NodeId y = topo_head_[i];
          if (rank_[y] > rr) {
            in_ent_[ic[y]] = Ent{x, kMaxWeight};
            in_pos_[i] = static_cast<std::uint32_t>(ic[y]++);
          }
        }
      }
    }

    // Pass 3: seed the current graph's edge weights (parallel arcs
    // collapse to the minimum, self-loops never enter a hierarchy).
    mid_.assign(m, kInvalidNode);
    for (NodeId v = 0; v < n_; ++v) {
      for (const Arc& a : g.OutArcs(v)) {
        if (a.head == v) continue;
        if (a.weight >= kMaxWeight) {
          throw std::invalid_argument(
              "RepairContraction: arc weight at sentinel");
        }
        const std::uint32_t id = Lookup(v, a.head);
        if (id == kInvalidEdge) {
          // The hierarchy does not know this edge: the graph's structure
          // changed, so a frozen-order repair is not applicable.
          throw std::invalid_argument(
              "RepairContraction: graph arc absent from hierarchy");
        }
        Ent& oe = out_ent_[out_pos_[id]];
        if (a.weight < oe.weight) {
          oe.weight = a.weight;
          in_ent_[in_pos_[id]].weight = a.weight;
        }
      }
    }
  }

  std::uint32_t Lookup(NodeId u, NodeId w) const {
    const auto begin = topo_head_.begin() + topo_first_[u];
    const auto end = topo_head_.begin() + topo_first_[u + 1];
    const auto it = std::lower_bound(begin, end, w);
    if (it == end || *it != w) return kInvalidEdge;
    return static_cast<std::uint32_t>(it - topo_head_.begin());
  }

  // Replays the recorded pruning witness for pair (u,w) at step r, if the
  // input table has one: re-sums the stored path over current step-r
  // weights and prunes if it still proves length <= via. Interior nodes
  // must still rank above r (they do whenever the table matches this
  // hierarchy's rank permutation — checked anyway so a mismatched table
  // degrades to searches instead of corrupting decisions). A successful
  // replay is re-recorded for the next repair.
  bool ReplayCert(NodeId v, Rank r, NodeId u, NodeId w, Dist via) {
    const WitnessCert* c = in_certs_->Find(v, u, w);
    if (c == nullptr) return false;
    const NodeId* interior = in_certs_->Interior(*c);
    Dist d = 0;
    NodeId x = u;
    for (std::uint32_t i = 0; i <= c->count; ++i) {
      const NodeId y = i < c->count ? interior[i] : w;
      if (i < c->count && rank_[y] <= r) return false;
      const std::uint32_t id = Lookup(x, y);
      if (id == kInvalidEdge) return false;
      const Weight wt = out_ent_[out_pos_[id]].weight;
      if (wt == kMaxWeight) return false;  // Arc not present at step r.
      d += wt;
      if (d > via) return false;  // The old witness got slower: search.
      x = y;
    }
    out_certs_.Record(v, u, w, interior, c->count);
    ++cert_replays_;
    return true;
  }

  // Kernel mirror of ContractionEngine::RecordPruneCert: walks the parent
  // chain of the just-finished witness search and records the pruning
  // witness for the next repair. Bails out on any stamp mismatch.
  void RecordSearchCert(NodeId v, NodeId u, NodeId w) {
    cert_path_.clear();
    NodeId x = w;
    while (x != u) {
      if (parent_stamp_[x] != round_) return;
      x = parent_[x];
      if (x == kInvalidNode) return;
      if (x == u) break;
      cert_path_.push_back(x);
      if (cert_path_.size() > params_.witness_settle_limit + 2) return;
    }
    std::reverse(cert_path_.begin(), cert_path_.end());
    out_certs_.Record(v, u, w, cert_path_.data(), cert_path_.size());
  }

  // Iterates the active out-arcs of x at step r: present arcs (weight
  // below the sentinel) whose head ranks above r. The step-r node itself
  // has rank exactly r, so it is skipped automatically — no explicit
  // excluded/contracted checks anywhere.
  template <typename Fn>
  void ForEachActiveOut(NodeId x, Rank r, Fn&& fn) const {
    for (std::uint64_t i = out_first_[x]; i < out_split_[x]; ++i) {
      const Ent& e = out_ent_[i];
      if (e.weight != kMaxWeight) fn(e.node, static_cast<Dist>(e.weight));
    }
    for (std::uint64_t i = out_split_[x]; i < out_first_[x + 1]; ++i) {
      const Ent& e = out_ent_[i];
      if (rank_[e.node] <= r) break;  // Sorted by rank desc: rest inactive.
      if (e.weight != kMaxWeight) fn(e.node, static_cast<Dist>(e.weight));
    }
    for (const SideOut& s : side_out_[x]) {
      if (rank_[s.head] > r) fn(s.head, static_cast<Dist>(s.weight));
    }
  }

  // In-arc mirror of ForEachActiveOut; fn returns false to stop early.
  template <typename Fn>
  void ForEachActiveIn(NodeId w, Rank r, Fn&& fn) const {
    for (std::uint64_t i = in_first_[w]; i < in_split_[w]; ++i) {
      const Ent& e = in_ent_[i];
      if (e.weight != kMaxWeight &&
          !fn(e.node, static_cast<Dist>(e.weight))) {
        return;
      }
    }
    for (std::uint64_t i = in_split_[w]; i < in_first_[w + 1]; ++i) {
      const Ent& e = in_ent_[i];
      if (rank_[e.node] <= r) break;
      if (e.weight != kMaxWeight &&
          !fn(e.node, static_cast<Dist>(e.weight))) {
        return;
      }
    }
    for (const SideIn& s : side_in_[w]) {
      if (rank_[s.tail] > r && !fn(s.tail, static_cast<Dist>(s.weight))) {
        return;
      }
    }
  }

  Dist Label(NodeId v) const {
    return stamp_[v] == round_ ? dist_[v] : kInfDist;
  }

  void RelaxLabel(NodeId y, Dist d) {
    if (stamp_[y] != round_ || d < dist_[y]) {
      stamp_[y] = round_;
      dist_[y] = d;
    }
  }

  // Hop-bounded witness prefilter: mirrors
  // ContractionEngine::RunWitnessPrefilter over the static layout. Pass 1
  // resolves targets some path of up to two arcs from u proves a witness
  // for; pass 2 pushes labels one more arc and re-scans, covering up to
  // three arcs. Labels are real path lengths avoiding the step-r node, so
  // every prune decision matches what the Dijkstra search would make.
  void Prefilter(NodeId u, Rank r) {
    NextRound(round_, stamp_, parent_stamp_);
    ring_.clear();
    ForEachActiveOut(u, r, [&](NodeId y, Dist wt) {
      RelaxLabel(y, wt);
      ring_.push_back(y);
    });
    ScanTargets(u, r);
    if (!targets_.empty()) {
      for (const NodeId z : ring_) {
        const Dist dz = dist_[z];
        ForEachActiveOut(z, r, [&](NodeId y, Dist wt) {
          if (y != u) RelaxLabel(y, dz + wt);
        });
      }
      ScanTargets(u, r);
    }
  }

  // One prefilter resolution sweep over targets_.
  void ScanTargets(NodeId u, Rank r) {
    std::size_t kept = 0;
    for (const Target& t : targets_) {
      Dist best = Label(t.w);
      if (best > t.via) {
        ForEachActiveIn(t.w, r, [&](NodeId tail, Dist wt) {
          if (tail != u && stamp_[tail] == round_) {
            best = std::min(best, dist_[tail] + wt);
            if (best <= t.via) return false;
          }
          return true;
        });
      }
      if (best <= t.via) {
        cand_[t.cand_index].pruned = true;
      } else {
        targets_[kept++] = t;
      }
    }
    targets_.resize(kept);
  }

  // Target-counted Dijkstra witness search from u in the step-r active
  // overlay: same shrinking-bound logic as
  // ContractionEngine::RunWitnessSearch.
  void WitnessSearch(NodeId u, Rank r) {
    Dist bound = 0;
    for (const Target& t : targets_) bound = std::max(bound, t.via);
    NextRound(round_, stamp_, parent_stamp_);
    ++witness_searches_;
    heap_.Clear();
    stamp_[u] = round_;
    dist_[u] = 0;
    parent_[u] = kInvalidNode;
    parent_stamp_[u] = round_;
    heap_.PushOrDecrease(u, 0);
    std::size_t settled = 0;
    while (!heap_.Empty()) {
      auto [d, x] = heap_.PopMin();
      if (d > bound) break;
      if (++settled > params_.witness_settle_limit) break;
      ++witness_settled_;
      if (target_stamp_[x] == target_round_) {
        // x's label is final: resolve it and re-tighten the bound.
        for (std::size_t i = 0; i < targets_.size(); ++i) {
          if (targets_[i].w == x) {
            targets_[i] = targets_.back();
            targets_.pop_back();
            break;
          }
        }
        if (targets_.empty()) break;
        bound = 0;
        for (const Target& t : targets_) bound = std::max(bound, t.via);
        if (d > bound) break;
      }
      ForEachActiveOut(x, r, [&](NodeId y, Dist wt) {
        const Dist nd = d + wt;
        if (nd > bound) return;
        if (stamp_[y] != round_ || nd < dist_[y]) {
          stamp_[y] = round_;
          dist_[y] = nd;
          parent_[y] = x;
          parent_stamp_[y] = round_;
          heap_.PushOrDecrease(y, nd);
        }
      });
    }
  }

  void SideAddOrImprove(NodeId u, NodeId w, Weight via, NodeId mid) {
    for (SideOut& s : side_out_[u]) {
      if (s.head != w) continue;
      if (s.weight <= via) return;
      s.weight = via;
      s.mid = mid;
      for (SideIn& si : side_in_[w]) {
        if (si.tail == u) {
          si.weight = via;
          break;
        }
      }
      ++shortcuts_;
      return;
    }
    side_out_[u].push_back(SideOut{w, via, mid});
    side_in_[w].push_back(SideIn{u, via});
    ++shortcuts_;
  }

  // Contraction step r for node order_[r]: witness-check and commit the
  // shortcuts between its active neighbors. The node's own incident arcs
  // already hold their final weights (every midpoint that could improve
  // them ranks below r), which is exactly why nothing needs emitting here
  // — Assemble reads final state once at the end.
  void Step(Rank r) {
    const NodeId v = order_[r];
    // Active neighbors of v all rank above r, so only the upward parts
    // and the side lists can contribute.
    in_list_.clear();
    for (std::uint64_t i = in_first_[v]; i < in_split_[v]; ++i) {
      const Ent& e = in_ent_[i];
      if (e.weight != kMaxWeight) in_list_.push_back(e);
    }
    for (const SideIn& s : side_in_[v]) {
      if (rank_[s.tail] > r) in_list_.push_back(Ent{s.tail, s.weight});
    }
    if (in_list_.empty()) return;
    out_list_.clear();
    for (std::uint64_t i = out_first_[v]; i < out_split_[v]; ++i) {
      const Ent& e = out_ent_[i];
      if (e.weight != kMaxWeight) out_list_.push_back(e);
    }
    for (const SideOut& s : side_out_[v]) {
      if (rank_[s.head] > r) out_list_.push_back(Ent{s.head, s.weight});
    }
    if (out_list_.empty()) return;

    for (const Ent& ie : in_list_) {
      const NodeId u = ie.node;
      cand_.clear();
      targets_.clear();
      NextRound(target_round_, target_stamp_);
      for (const Ent& oe : out_list_) {
        const NodeId w = oe.node;
        if (w == u) continue;
        const Dist via =
            static_cast<Dist>(ie.weight) + static_cast<Dist>(oe.weight);
        const std::uint32_t id = Lookup(u, w);
        cand_.push_back(CandRec{w, via, id, false});
        if (id != kInvalidEdge) continue;  // Hinted: no witness needed.
        if (in_certs_ != nullptr && ReplayCert(v, r, u, w, via)) {
          cand_.back().pruned = true;  // Certificate proved a witness.
          continue;
        }
        target_stamp_[w] = target_round_;
        targets_.push_back(
            Target{w, via, static_cast<std::uint32_t>(cand_.size() - 1)});
      }
      if (!targets_.empty()) Prefilter(u, r);
      if (!targets_.empty()) WitnessSearch(u, r);
      for (const CandRec& c : cand_) {
        if (c.pruned) continue;  // Prefilter proved a witness.
        if (c.via >= static_cast<Dist>(kMaxWeight)) continue;  // Overflow.
        if (c.id != kInvalidEdge) {
          Ent& oe = out_ent_[out_pos_[c.id]];
          if (c.via < static_cast<Dist>(oe.weight)) {
            oe.weight = static_cast<Weight>(c.via);
            in_ent_[in_pos_[c.id]].weight = oe.weight;
            mid_[c.id] = v;
            ++shortcuts_;
          }
        } else {
          if (Label(c.w) <= c.via) {  // Witness found.
            RecordSearchCert(v, u, c.w);
            continue;
          }
          SideAddOrImprove(u, c.w, static_cast<Weight>(c.via), v);
        }
      }
    }
  }

  RepairResult Assemble() const {
    RepairResult result;
    std::size_t sides = 0;
    for (NodeId v = 0; v < n_; ++v) sides += side_out_[v].size();
    result.arcs.reserve(topo_head_.size() + sides);
    for (NodeId u = 0; u < n_; ++u) {
      for (std::uint64_t i = topo_first_[u]; i < topo_first_[u + 1]; ++i) {
        const Weight w = out_ent_[out_pos_[i]].weight;
        if (w == kMaxWeight) continue;  // Pruned away this epoch.
        result.arcs.push_back(HierArc{u, topo_head_[i], w, mid_[i]});
      }
      for (const SideOut& s : side_out_[u]) {
        result.arcs.push_back(HierArc{u, s.head, s.weight, s.mid});
      }
    }
    result.shortcuts = shortcuts_;
    result.witness_searches = witness_searches_;
    result.witness_settled = witness_settled_;
    result.cert_replays = cert_replays_;
    return result;
  }

  ContractionParams params_;
  std::size_t n_;
  std::vector<Rank> rank_;
  std::vector<NodeId> order_;

  // Previous topology (see the class comment for the layout).
  std::vector<std::uint64_t> topo_first_;
  std::vector<NodeId> topo_head_;
  std::vector<NodeId> mid_;
  std::vector<std::uint64_t> out_first_, in_first_;
  std::vector<std::uint64_t> out_split_, in_split_;
  std::vector<Ent> out_ent_, in_ent_;
  std::vector<std::uint32_t> out_pos_, in_pos_;

  // Arcs of this epoch that the previous topology lacks.
  std::vector<std::vector<SideOut>> side_out_;
  std::vector<std::vector<SideIn>> side_in_;

  std::size_t shortcuts_ = 0;
  std::size_t witness_searches_ = 0;
  std::size_t witness_settled_ = 0;
  std::size_t cert_replays_ = 0;

  // Witness certificates: replayed from the previous epoch's table,
  // re-recorded into the next epoch's (see hier/witness_certs.h).
  const WitnessCertTable* in_certs_;
  WitnessCertTable out_certs_;
  std::vector<NodeId> cert_path_;

  // Search scratch.
  IndexedHeap heap_;
  std::vector<Dist> dist_;
  std::vector<std::uint32_t> stamp_;
  std::vector<NodeId> parent_;
  std::vector<std::uint32_t> parent_stamp_;
  std::uint32_t round_ = 0;
  std::vector<std::uint32_t> target_stamp_;
  std::uint32_t target_round_ = 0;
  std::vector<CandRec> cand_;
  std::vector<Target> targets_;
  std::vector<NodeId> ring_;
  std::vector<Ent> in_list_, out_list_;
};

}  // namespace

RepairResult RepairContraction(const Graph& g, const SearchGraph& prev,
                               const ContractionParams& params,
                               const WitnessCertTable* certs) {
  RepairKernel k(g, prev, params, certs);
  return k.Run();
}

}  // namespace ah
