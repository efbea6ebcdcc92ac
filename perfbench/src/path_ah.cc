// path-ah: the paper's index (AH) answering the paper's path query (Fig 9)
// through the v1 text protocol. Two connections send `p s t` lines in a
// closed loop. Pairs are spread over the distance bands Q1..Q10 and issued
// in one fixed cyclic order from a pool larger than the result cache, so
// the cache never hits and only pays its insert cost: AH search, path
// unpacking and long text replies do the work.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <unordered_set>

#include "gen/catalog.h"
#include "harness.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

constexpr double kScale = 0.25;            // DE stand-in, 12,656 nodes
constexpr std::size_t kPoolSize = 100'000;  // > 65,536 cache entries
constexpr int kConnections = 2;
constexpr int kSetups = 2;  // before and again after the timed phase
// Requests per second per connection the latency buffers are sized for.
constexpr std::size_t kMaxRate = 50'000;
constexpr std::uint64_t kSampleEvery = 8;  // replies kept for path checks
constexpr std::size_t kSampleCap = 8192;    // per connection
constexpr std::size_t kReplayRequests = 6000;
constexpr std::size_t kReplayWarm = 70'000;  // > the cache's 65,536 entries
constexpr std::size_t kSmallBandSources = 4000;
constexpr std::size_t kPerSourceQuota = 100;

struct PoolPair {
  NodeId s = 0;
  NodeId t = 0;
  Dist ref = 0;
};

// Distance bands Q1..Q10 as workload/ defines them (lmax from a fixed-seed
// double sweep, so the bands are a property of the graph), filled with
// pairs found by the checker's own Dijkstra: each band gets an even share
// of the pool; a band with too few pairs in the whole graph passes its
// shortfall on to the bands after it. The pool is then shuffled into its
// fixed cyclic order.
std::vector<PoolPair> BuildPool(const ah::Graph& g, const RefGraph& ref,
                                std::uint64_t seed) {
  ah::WorkloadParams params;
  params.pairs_per_set = 0;  // bands only
  const ah::Workload bands = ah::GenerateWorkload(g, params);
  std::vector<PoolPair> pool;
  std::vector<Dist> dist;
  std::vector<NodeId> candidates;
  const std::size_t num_bands = bands.sets.size();
  std::printf("pool bands:");
  for (std::size_t b = 0; b < num_bands; ++b) {
    const ah::QuerySet& band = bands.sets[b];
    const std::size_t want = (kPoolSize - pool.size()) / (num_bands - b);
    const std::size_t first = pool.size();
    std::unordered_set<std::uint64_t> seen;
    ah::Rng rng(Mix(seed, b));
    for (std::size_t round = 0; pool.size() - first < want; ++round) {
      // Long bands fill within a few hundred sources; short bands are
      // scanned from a fixed number of sources and may stay short.
      const bool short_band = band.hi <= bands.lmax / 32;
      if (round >= (short_band ? kSmallBandSources : 20 * kSmallBandSources)) {
        break;
      }
      const auto s = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
      ref.Distances(s, &dist, band.hi);
      candidates.clear();
      for (NodeId v = 0; v < dist.size(); ++v) {
        if (v != s && dist[v] >= band.lo && dist[v] < band.hi &&
            seen.count((std::uint64_t{s} << 32) | v) == 0) {
          candidates.push_back(v);
        }
      }
      const std::size_t take = std::min(
          {candidates.size(), kPerSourceQuota, want - (pool.size() - first)});
      for (std::size_t i = 0; i < take; ++i) {
        std::swap(candidates[i],
                  candidates[i + rng.Uniform(candidates.size() - i)]);
        seen.insert((std::uint64_t{s} << 32) | candidates[i]);
        pool.push_back(PoolPair{s, candidates[i], dist[candidates[i]]});
      }
    }
    std::printf(" Q%d=%zu", band.index, pool.size() - first);
  }
  std::printf(" (total %zu)\n", pool.size());
  ah::Rng rng(Mix(seed, 99));
  for (std::size_t i = pool.size(); i > 1; --i) {
    std::swap(pool[i - 1], pool[rng.Uniform(i)]);
  }
  return pool;
}

// Parses "OK p <len> <m> <n1> ... <nm>" into *len and *nodes.
bool ParsePathReply(std::string_view reply, Dist* len,
                    std::vector<NodeId>* nodes) {
  if (reply.rfind("OK p ", 0) != 0) return false;
  const char* p = reply.data() + 5;
  const char* end = reply.data() + reply.size();
  std::size_t m = 0;
  auto r = std::from_chars(p, end, *len);
  if (r.ec != std::errc() || r.ptr == end) return false;
  r = std::from_chars(r.ptr + 1, end, m);
  if (r.ec != std::errc()) return false;
  nodes->resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    if (r.ptr == end) return false;
    r = std::from_chars(r.ptr + 1, end, (*nodes)[i]);
    if (r.ec != std::errc()) return false;
  }
  return r.ptr == end;
}

struct Sample {
  std::size_t pool_index = 0;
  Dist len = 0;
  std::vector<NodeId> nodes;
};

}  // namespace

Result RunPathAh(const Options& options) {
  const ah::Graph g = ah::MakeScaledDataset(*ah::FindDataset("DE"), kScale);
  const RefGraph ref(g);
  const std::vector<PoolPair> pool = BuildPool(g, ref, options.seed);
  std::printf("graph: DE x%.2f, %zu nodes, %zu arcs; pool %zu pairs\n", kScale,
              g.NumNodes(), g.NumArcs(), pool.size());

  // One `p s t` round trip; *len and *nodes hold the parsed reply.
  auto path = [](Conn& conn, const PoolPair& pair, Step* r, Dist* len,
                 std::vector<NodeId>* nodes) {
    const std::string line = PointLine('p', pair.s, pair.t) + '\n';
    r->sent_ns = NowNs();
    r->transport_ok = conn.Send(line);
    std::string_view reply;
    if (r->transport_ok) r->transport_ok = conn.ReadLine(&reply);
    if (!r->transport_ok) return false;
    const bool ok = ParsePathReply(reply, len, nodes);
    r->done_ns = NowNs();
    r->answers = 1;
    if (!ok || *len != pair.ref) {
      std::fprintf(stderr, "path-ah: bad reply to p %u %u: %.*s\n", pair.s,
                   pair.t,
                   static_cast<int>(std::min<std::size_t>(reply.size(), 120)),
                   reply.data());
      return false;
    }
    return true;
  };

  // Both connections walk the pool in one shared cyclic order.
  std::atomic<std::uint64_t> cursor{0};
  std::vector<std::vector<Sample>> samples(kConnections);
  Workload w;
  w.backend = "ah";
  w.setups = kSetups;
  w.v2 = false;
  w.connections = kConnections;
  w.max_rate = kMaxRate;
  w.first = [&](Conn& conn) {
    Step r;
    Dist len = 0;
    std::vector<NodeId> nodes;
    return path(conn, pool.front(), &r, &len, &nodes);
  };
  w.make_step = [&](int c, Conn& conn) -> StepFn {
    return [&, c, nodes = std::vector<NodeId>()](std::uint64_t) mutable {
      Step r;
      const std::uint64_t n = cursor.fetch_add(1);
      const std::size_t index = n % pool.size();
      Dist len = 0;
      r.ok = path(conn, pool[index], &r, &len, &nodes);
      if (r.transport_ok && Mix(options.seed, n) % kSampleEvery == 0 &&
          samples[c].size() < kSampleCap) {
        samples[c].push_back(Sample{index, len, nodes});
      }
      return r;
    };
  };
  w.check = [&](Result* result) {
    // Path checks on the seeded sample, outside the timed phase.
    std::size_t checked = 0;
    const Sample* long_path = nullptr;
    for (const auto& per_conn : samples) {
      for (const Sample& s : per_conn) {
        const PoolPair& pair = pool[s.pool_index];
        const std::string why =
            CheckPath(ref, pair.s, pair.t, pair.ref, s.len, s.nodes);
        ++checked;
        if (!why.empty()) {
          ++result->failed;
          std::fprintf(stderr, "path-ah: p %u %u rejected: %s\n", pair.s,
                       pair.t, why.c_str());
        }
        if (long_path == nullptr && s.nodes.size() >= 3) long_path = &s;
      }
    }
    std::printf("checked: %zu sampled paths hop by hop; every reply's length "
                "against the reference\n", checked);

    // Self-test: corrupted replies must be rejected.
    int caught = 0;
    if (long_path != nullptr) {
      const PoolPair& pair = pool[long_path->pool_index];
      std::vector<NodeId> dropped = long_path->nodes;
      dropped.erase(dropped.begin() +
                    static_cast<std::ptrdiff_t>(dropped.size() / 2));
      caught += !CheckPath(ref, pair.s, pair.t, pair.ref, long_path->len,
                           dropped).empty();
      caught += !CheckPath(ref, pair.s, pair.t, pair.ref, long_path->len + 1,
                           long_path->nodes).empty();
    }
    std::printf("selftest: %d/2 corrupted replies rejected (node dropped, "
                "length off by one)\n", caught);
    if (caught != 2) result->Incorrect("checker self-test");
  };
  w.replay = [&] {
    ReplayStream stream;
    stream.kind = ReplayKind::kPath;
    stream.v2 = false;
    stream.threads = kConnections;
    // The next requests the loop would have sent, warmed with the ones
    // before them: the oldest in the served cache's recency order, so the
    // in-process pass misses like the loop did.
    const std::size_t next = cursor.load();
    for (std::size_t i = 0; i < kReplayWarm; ++i) {
      const PoolPair& p =
          pool[(next + pool.size() - kReplayWarm + i) % pool.size()];
      stream.warm.push_back(ReplayItem{p.s, p.t, p.ref, {}, {}});
    }
    for (std::size_t i = 0; i < kReplayRequests; ++i) {
      const PoolPair& p = pool[(next + i) % pool.size()];
      stream.items.push_back(ReplayItem{p.s, p.t, p.ref, {}, {}});
    }
    return stream;
  };
  return Drive(options, g, w);
}

}  // namespace perfbench
