// Figure 8: average distance-query time (microseconds) per query set
// Q1..Q10, per dataset, for Dijkstra / SILC / CH / HL / AH.
//
// Expected shape (paper): AH fastest of the search-based methods and by
// >50% on far queries (Q8-Q10); CH close behind; SILC competitive on small
// inputs only (and dropped on large ones — here: skipped when n exceeds
// AH_BENCH_SILC_MAX); Dijkstra slowest, degrading steeply with query
// distance. HL answers by merge-joining two sorted label arrays — no graph
// search at all — so its per-query cost is flat across the sets and well
// below CH (it trades label-building time and space for it).
#include "bench_common.h"
#include "bench_json.h"
#include "ch/ch_index.h"
#include "core/ah_query.h"
#include "hl/hl_index.h"
#include "routing/dijkstra.h"
#include "silc/silc_index.h"

int main() {
  using namespace ah;
  using namespace ah::bench;
  BenchJson json("fig8");
  PrintHeader("Figure 8 — Efficiency of Distance Queries vs. Query Set",
              "avg running time (microsec) per query set Q1..Q10");

  const std::size_t count = BenchDatasetCountFromEnv(4);
  const std::size_t pairs = EnvSizeT("AH_BENCH_PAIRS", 100);
  const std::size_t silc_max = EnvSizeT("AH_BENCH_SILC_MAX", 8000);

  for (const PreparedDataset& d : PrepareDatasets(count)) {
    const Graph& g = d.graph;
    const Workload workload = BenchWorkload(g, pairs);

    Timer build_timer;
    ChIndex ch = ChIndex::Build(g);
    std::printf("[build] CH   %.1fs\n", build_timer.Seconds());
    build_timer.Restart();
    AhIndex ah = AhIndex::Build(g);
    std::printf("[build] AH   %.1fs\n", build_timer.Seconds());
    build_timer.Restart();
    HlIndex hl = HlIndex::Build(g);
    std::printf("[build] HL   %.1fs (%.1f avg labels/node, %.1f MB)\n",
                build_timer.Seconds(),
                static_cast<double>(hl.build_stats().in_labels +
                                    hl.build_stats().out_labels) /
                    std::max<std::size_t>(1, 2 * g.NumNodes()),
                static_cast<double>(hl.SizeBytes()) / (1024.0 * 1024.0));
    const bool run_silc = g.NumNodes() <= silc_max;
    SilcIndex silc;
    if (run_silc) {
      build_timer.Restart();
      silc = SilcIndex::Build(g);
      std::printf("[build] SILC %.1fs\n", build_timer.Seconds());
    } else {
      std::printf("[build] SILC skipped (n > %zu; cf. paper §6.4)\n",
                  silc_max);
    }
    std::fflush(stdout);

    Dijkstra dijkstra(g);
    ChQuery ch_query(ch);
    AhQuery ah_query(ah);

    std::printf("\n--- %s (n = %s) — distance queries ---\n",
                d.spec.name.c_str(),
                TextTable::Int(static_cast<long long>(g.NumNodes())).c_str());
    TextTable table({"set", "pairs", "AH (us)", "CH (us)", "HL (us)",
                     "SILC (us)", "Dijkstra (us)", "AH/CH speedup",
                     "CH/HL speedup"});
    double hl_speedup_sum = 0;
    double hl_speedup_base = 0;
    std::size_t hl_speedup_sets = 0;
    for (const QuerySet& qs : workload.sets) {
      const auto [ah_us, ah_sum] = TimeQueries(
          qs.pairs, [&](NodeId s, NodeId t) { return ah_query.Distance(s, t); });
      const auto [ch_us, ch_sum] = TimeQueries(
          qs.pairs, [&](NodeId s, NodeId t) { return ch_query.Distance(s, t); });
      const auto [hl_us, hl_sum] = TimeQueries(
          qs.pairs, [&](NodeId s, NodeId t) { return hl.Distance(s, t); });
      const auto [dij_us, dij_sum] = TimeQueries(
          qs.pairs, [&](NodeId s, NodeId t) { return dijkstra.Distance(s, t); });
      std::string silc_cell = "-";
      if (run_silc) {
        const auto [silc_us, silc_sum] = TimeQueries(
            qs.pairs, [&](NodeId s, NodeId t) { return silc.Distance(s, t); });
        silc_cell = TextTable::Num(silc_us, 2);
        if (silc_sum != dij_sum) {
          std::printf("!! SILC checksum mismatch on Q%d\n", qs.index);
        }
      }
      if (ah_sum != dij_sum || ch_sum != dij_sum || hl_sum != dij_sum) {
        std::printf(
            "!! checksum mismatch on Q%d (ah=%llu ch=%llu hl=%llu dij=%llu)\n",
            qs.index, static_cast<unsigned long long>(ah_sum),
            static_cast<unsigned long long>(ch_sum),
            static_cast<unsigned long long>(hl_sum),
            static_cast<unsigned long long>(dij_sum));
      }
      // Aggregate times, not a mean of per-set ratios: the speedup reported
      // below is (total CH time) / (total HL time) over every query, which
      // is the mean-latency ratio users actually see.
      if (hl_us > 0) {
        const double np = static_cast<double>(qs.pairs.size());
        hl_speedup_sum += ch_us * np;
        hl_speedup_base += hl_us * np;
        ++hl_speedup_sets;
      }
      table.AddRow({QuerySetLabel(qs.index),
                    std::to_string(qs.pairs.size()), TextTable::Num(ah_us, 2),
                    TextTable::Num(ch_us, 2), TextTable::Num(hl_us, 2),
                    silc_cell, TextTable::Num(dij_us, 2),
                    ch_us > 0 ? TextTable::Num(ch_us / std::max(ah_us, 1e-9), 2)
                              : "-",
                    ch_us > 0 ? TextTable::Num(ch_us / std::max(hl_us, 1e-9), 2)
                              : "-"});
      // One gate series per (backend, set): avg latency as the quantiles,
      // 1e6/avg as qps, and the Dijkstra-verified distance sum as the
      // checksum the perf gate hard-fails on.
      const struct {
        const char* name;
        double us;
        Dist sum;
      } gate_series[] = {{"ah", ah_us, ah_sum},
                         {"ch", ch_us, ch_sum},
                         {"hl", hl_us, hl_sum}};
      // A set with no pairs (small scales leave Q1/Q2 empty) measured
      // nothing, so it gets no gate series.
      for (const auto& s : gate_series) {
        if (qs.pairs.empty()) continue;
        json.AddSeries(d.spec.name + "/" + s.name + "/" +
                           QuerySetLabel(qs.index),
                       s.us > 0 ? 1e6 / s.us : 0, s.us, s.us, s.sum);
      }
    }
    table.Print();
    if (hl_speedup_base > 0) {
      std::printf(
          "CH vs HL mean distance latency: %.1fx (aggregate over %zu sets)\n",
          hl_speedup_sum / hl_speedup_base, hl_speedup_sets);
    }
    std::fflush(stdout);
  }
  if (!json.WriteToEnvPath()) return 1;
  std::printf(
      "\nPaper shape check: AH <= CH on all sets and well below CH on\n"
      "Q8-Q10; Dijkstra worst and growing with the set index. HL flat and\n"
      "fastest across all sets (merge join, no search).\n");
  return 0;
}
