// fleet-ch: dispatch-style matrix traffic with writes alongside reads. One
// v2 connection sends 40x40 `m` requests over uniformly random locations,
// back to back; 1,600 cells exceed matrix_cache_max_cells, so the cache is
// bypassed and the bucket many-to-many engine with its ParallelChunks
// fan-out does the work. A second connection is the update feed: at a fixed
// cadence, for a fixed number of cycles, it sends 1% of the arcs as weight
// deltas from perturb/traffic_feed through the `upd` verb, then `reload`,
// and polls `stats` until the new epoch is published. Frozen-order repairs
// and epoch swaps therefore run under load, and the epoch count and final
// index are the same on every run with the same seed.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <stdexcept>
#include <thread>

#include "gen/catalog.h"
#include "graph/weight_update.h"
#include "harness.h"
#include "perturb/traffic_feed.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr double kScale = 0.5;  // DE stand-in, 25,370 nodes
constexpr std::size_t kSide = 40;
constexpr int kCycles = 9;
constexpr double kDeltaFraction = 0.01;
constexpr int kSetups = 3;  // before and again after the timed phase
// Requests per second per connection the latency buffers are sized for.
constexpr std::size_t kMaxRate = 10'000;
constexpr std::uint64_t kSampleEvery = 32;
// Sampled replies kept per published-version count at send time, so every
// epoch of the run is checked, the first swap's successors included.
constexpr std::size_t kSamplesPerEpoch = 10;
constexpr std::size_t kReplayRequests = 200;
constexpr std::int64_t kPublishTimeoutNs = 30'000'000'000;

struct MatrixSample {
  std::vector<NodeId> sources;
  std::vector<NodeId> targets;
  int lo = 0;  // graph versions published before the request was sent
  int hi = 0;  // versions requested (reload sent) before the reply arrived
  std::vector<Dist> cells;
};

std::vector<NodeId> Locations(ah::Rng& rng, std::size_t n, std::size_t count) {
  std::vector<NodeId> out(count);
  for (NodeId& v : out) v = static_cast<NodeId>(rng.Uniform(n));
  return out;
}

// The rows of a sampled reply the checker recomputes.
std::vector<std::size_t> CheckedRows(std::uint64_t seed, std::size_t k) {
  const std::size_t r = Mix(seed, 1000 + k) % kSide;
  return {r, (r + kSide / 2) % kSide};
}

// True when one graph version in [lo, hi] explains every checked row of
// `cells`: a matrix is answered from one epoch, either the one in force
// when it was sent or one published while it was in flight.
bool MatrixOk(const std::vector<RefGraph>& versions, const MatrixSample& s,
              const std::vector<Dist>& cells,
              const std::vector<std::size_t>& rows) {
  std::vector<Dist> dist;
  for (int v = s.lo; v <= s.hi; ++v) {
    bool all = true;
    for (std::size_t i : rows) {
      versions[v].Distances(s.sources[i], &dist);
      for (std::size_t j = 0; all && j < s.targets.size(); ++j) {
        all = cells[i * s.targets.size() + j] == dist[s.targets[j]];
      }
      if (!all) break;
    }
    if (all) return true;
  }
  return false;
}

// Reads one reply frame and checks its opcode and status.
bool ReadOk(Conn& conn, Op want, std::string_view* payload) {
  Op op;
  std::uint8_t status = 0;
  std::uint64_t id = 0;
  return conn.ReadFrame(&op, &status, &id, payload) && op == want &&
         status == 0;
}

// The generation `stats` reports for the ch backend, or 0.
std::uint64_t Generation(std::string_view stats) {
  const std::size_t at = stats.find("epoch_ch=");
  if (at == std::string_view::npos) return 0;
  return std::strtoull(std::string(stats.substr(at + 9, 20)).c_str(), nullptr,
                       10);
}

}  // namespace

Result RunFleetCh(const Options& options) {
  const ah::Graph g = ah::MakeScaledDataset(*ah::FindDataset("DE"), kScale);
  ah::TrafficFeedParams feed_params;
  feed_params.batch_fraction = kDeltaFraction;
  feed_params.seed = Mix(options.seed, 5);
  ah::TrafficFeed feed(g, feed_params);
  std::vector<std::vector<ah::WeightDelta>> batches;
  std::vector<RefGraph> versions{RefGraph(g)};
  for (int k = 0; k < kCycles; ++k) {
    batches.push_back(feed.NextBatch());
    versions.push_back(versions.back());
    for (const ah::WeightDelta& d : batches.back()) {
      if (!versions.back().SetWeight(d.tail, d.head, d.weight)) {
        throw std::runtime_error("feed names a missing arc");
      }
    }
  }
  std::printf("graph: DE x%.2f, %zu nodes, %zu arcs; %zux%zu matrices; %d "
              "cycles of %zu deltas (%.0f%% of arcs)\n",
              kScale, g.NumNodes(), g.NumArcs(), kSide, kSide, kCycles,
              batches.front().size(), kDeltaFraction * 100);

  ah::Rng probe_rng(Mix(options.seed, 9));
  const std::vector<NodeId> probe = Locations(probe_rng, g.NumNodes(), 2);
  std::atomic<int> published{0};
  std::atomic<int> requested{0};
  std::vector<MatrixSample> samples;
  std::vector<std::size_t> samples_per_epoch(kCycles + 1, 0);
  std::vector<double> refresh_s;

  Workload w;
  w.backend = "ch";
  w.setups = kSetups;
  w.v2 = true;
  w.connections = 1;
  w.max_rate = kMaxRate;
  w.first = [&](Conn& conn) {
    std::string_view payload;
    return conn.Send(MatrixFrame({probe[0]}, {probe[1]}, 1)) &&
           ReadOk(conn, Op::kMatrix, &payload);
  };
  w.make_step = [&](int, Conn& conn) -> StepFn {
    return [&, rng = ah::Rng(Mix(options.seed, 7)),
            cells = std::vector<Dist>(kSide * kSide)](
               std::uint64_t seq) mutable {
      Step r;
      std::vector<NodeId> sources = Locations(rng, g.NumNodes(), kSide);
      std::vector<NodeId> targets = Locations(rng, g.NumNodes(), kSide);
      const std::string frame = MatrixFrame(sources, targets, seq + 1);
      const int lo = published.load(std::memory_order_acquire);
      r.sent_ns = NowNs();
      r.transport_ok = conn.Send(frame);
      Op op = Op::kHello;
      std::uint8_t status = 0;
      std::uint64_t id = 0;
      std::string_view payload;
      if (r.transport_ok) {
        r.transport_ok = conn.ReadFrame(&op, &status, &id, &payload);
      }
      const int hi = requested.load(std::memory_order_acquire);
      if (!r.transport_ok) return r;
      r.ok = status == 0 && op == Op::kMatrix && id == seq + 1 &&
             payload.size() == 8 + cells.size() * 8 &&
             GetU32(payload.data()) == kSide &&
             GetU32(payload.data() + 4) == kSide;
      if (r.ok) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
          cells[i] = GetU64(payload.data() + 8 + 8 * i);
        }
      }
      r.done_ns = NowNs();
      r.answers = cells.size();
      if (!r.ok) {
        std::fprintf(stderr, "fleet-ch: bad matrix reply (status %u)\n",
                     status);
      } else if (Mix(options.seed, seq) % kSampleEvery == 0 &&
                 samples_per_epoch[lo]++ < kSamplesPerEpoch) {
        samples.push_back(MatrixSample{std::move(sources), std::move(targets),
                                       lo, hi, cells});
      }
      return r;
    };
  };
  // The update feed: kCycles batches at a fixed cadence over the phase,
  // each followed by `reload` and `stats` polls until the epoch is out.
  w.side = [&](Conn& conn, const Phase& phase, SideLoad* side) {
    const std::int64_t cadence =
        phase.window_ns * static_cast<std::int64_t>(phase.windows) /
        (kCycles + 1);
    std::uint64_t id = 1;
    for (int k = 0; k < kCycles; ++k) {
      SleepUntil(phase.start_ns + cadence * k + cadence / 2);
      const auto window =
          static_cast<std::size_t>((NowNs() - phase.start_ns) / phase.window_ns);
      const double cpu0 = ThreadCpuSeconds();
      std::string frames;
      for (const ah::WeightDelta& d : batches[k]) {
        frames += UpdateFrame(d.tail, d.head, d.weight, id++);
      }
      std::string_view payload;
      bool ok = conn.Send(frames);
      for (std::size_t i = 0; ok && i < batches[k].size(); ++i) {
        ++side->attempted;
        if (!ReadOk(conn, Op::kUpdate, &payload)) ++side->failed;
      }
      requested.store(k + 1, std::memory_order_release);
      const std::int64_t t0 = NowNs();
      ++side->attempted;
      ok = ok && conn.Send(EncodeFrame(Op::kReload, id++, {})) &&
           ReadOk(conn, Op::kReload, &payload);
      // The server reports the new epoch once the swap is published.
      while (ok) {
        ok = conn.Send(EncodeFrame(Op::kStats, id++, {})) &&
             ReadOk(conn, Op::kStats, &payload);
        if (ok && Generation(payload) >= static_cast<std::uint64_t>(k + 2)) {
          break;
        }
        if (NowNs() - t0 > kPublishTimeoutNs) ok = false;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      if (!ok) {
        ++side->failed;
        return;
      }
      refresh_s.push_back((NowNs() - t0) / 1e9);
      published.store(k + 1, std::memory_order_release);
      if (window < side->cpu.size()) side->cpu[window] += ThreadCpuSeconds() - cpu0;
    }
  };
  w.check = [&](Result* result) {
    if (published.load() != kCycles) {
      result->Incorrect("only " + std::to_string(published.load()) + " of " +
                        std::to_string(kCycles) + " epochs were published");
    }
    std::printf("refresh_s=%.6f (median of %zu cycles:", Median(refresh_s),
                refresh_s.size());
    for (double s : refresh_s) std::printf(" %.4f", s);
    std::printf(")\n");

    // Sampled matrices against the checker's Dijkstra on the right version.
    for (std::size_t k = 0; k < samples.size(); ++k) {
      const MatrixSample& s = samples[k];
      if (!MatrixOk(versions, s, s.cells, CheckedRows(options.seed, k))) {
        ++result->failed;
        std::fprintf(stderr, "fleet-ch: matrix %zu matches no version in "
                     "[%d, %d]\n", k, s.lo, s.hi);
      }
    }
    std::printf("checked: %zu sampled matrices, 2 rows each, against the "
                "reference on the epoch in force\n", samples.size());

    // Self-test: a cell off by one, and a cell answered from the stale
    // epoch after the swap completed, must both be rejected.
    int caught = 0;
    int stale_tested = 0;
    std::vector<Dist> dist;
    for (std::size_t k = 0; k < samples.size(); ++k) {
      const MatrixSample& s = samples[k];
      const std::vector<std::size_t> rows = CheckedRows(options.seed, k);
      std::vector<Dist> bad = s.cells;
      if (k == 0) {
        bad[rows[0] * kSide] += 1;
        caught += !MatrixOk(versions, s, bad, rows);
        bad = s.cells;
      }
      if (stale_tested == 0 && s.lo >= 1) {
        versions[s.lo - 1].Distances(s.sources[rows[0]], &dist);
        for (std::size_t j = 0; j < kSide; ++j) {
          Dist& cell = bad[rows[0] * kSide + j];
          if (dist[s.targets[j]] != cell) {
            cell = dist[s.targets[j]];
            stale_tested = 1;
            caught += !MatrixOk(versions, s, bad, rows);
            break;
          }
        }
      }
    }
    std::printf("selftest: %d/2 corrupted replies rejected (cell off by one, "
                "cell from the stale epoch)\n", caught);
    if (caught != 2) result->Incorrect("checker self-test");
  };
  w.replay = [&] {
    ReplayStream stream;
    stream.kind = ReplayKind::kMatrix;
    stream.v2 = true;
    stream.threads = 1;
    ah::Rng rng(Mix(options.seed, 300));
    for (std::size_t i = 0; i < kReplayRequests; ++i) {
      ReplayItem item;
      item.sources = Locations(rng, g.NumNodes(), kSide);
      item.targets = Locations(rng, g.NumNodes(), kSide);
      stream.items.push_back(std::move(item));
    }
    return stream;
  };
  w.layers = [&](Served& served, Tracer& tracer,
                 std::map<std::string, double>* layers, Result* result) {
    // The registry: the same delta batches through a harness-owned
    // registry, RequestReload to WaitForRebuild, without load.
    SpanBuffer& buf = tracer.NewBuffer();
    const std::uint32_t n_reload = tracer.Name("registry.reload");
    const std::uint32_t n_frozen = tracer.Name("repair.frozen");
    const std::uint32_t n_scratch = tracer.Name("repair.scratch");
    std::uint64_t fallbacks =
        served.registry->GetStats().backend_rebuilds[0].fallbacks;
    {
      ah::IndexRegistry registry(g, {"ch"});
      for (int k = 0; k < kCycles; ++k) {
        registry.QueueWeightUpdates(batches[k]);
        const std::uint32_t span = buf.Open(n_reload, kNoParent, k);
        registry.RequestReload();
        registry.WaitForRebuild();
        buf.Close(span);
      }
      fallbacks += registry.GetStats().backend_rebuilds[0].fallbacks;
    }
    // The repair kernel: each cycle's graph re-contracted under the frozen
    // order of the previous one, against a from-scratch ch build.
    std::deque<ah::Graph> graphs{g};
    std::unique_ptr<ah::DistanceOracle> prev = ah::MakeOracle("ch", graphs.back());
    for (int k = 0; k < kCycles; ++k) {
      graphs.push_back(graphs.back());
      ah::ApplyWeightDeltas(&graphs.back(), batches[k]);
      std::uint32_t span = buf.Open(n_frozen, kNoParent, k);
      std::unique_ptr<ah::DistanceOracle> next =
          prev->RebuildWithFrozenOrder(graphs.back());
      buf.Close(span);
      span = buf.Open(n_scratch, kNoParent, k);
      const std::unique_ptr<ah::DistanceOracle> scratch =
          ah::MakeOracle("ch", graphs.back());
      buf.Close(span);
      if (!next) {
        result->Incorrect("ch has no frozen-order rebuild");
        break;
      }
      prev = std::move(next);
    }
    (*layers)["registry.reload_s"] = tracer.MedianUs("registry.reload") / 1e6;
    (*layers)["registry.fallbacks"] = static_cast<double>(fallbacks);
    (*layers)["repair.frozen_s"] = tracer.MedianUs("repair.frozen") / 1e6;
    (*layers)["repair.scratch_s"] = tracer.MedianUs("repair.scratch") / 1e6;
    (*layers)["refresh_s"] = Median(refresh_s);
  };
  return Drive(options, g, w);
}

}  // namespace perfbench
