// hot-hl: the cheapest backend (hub labels) under skewed repeat traffic.
// Two v2 connections send distance frames in a closed loop. Pairs are drawn
// Zipf-skewed (exponent 1) from a pool four times the result cache's
// capacity, built as a grid of sources x targets so the reference distances
// take one Dijkstra per source. An hl distance costs well under a
// microsecond, so almost all of a request's time is the serve path: socket,
// v2 framing, cache probe, admission, the async queue hop and the session
// lease. The cache both hits and evicts.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "gen/catalog.h"
#include "harness.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr double kScale = 0.25;  // DE stand-in, 12,656 nodes
constexpr std::size_t kSources = 256;
constexpr std::size_t kTargets = 1024;  // pool = 262,144 = 4x the cache
constexpr double kZipfExponent = 1.0;
constexpr int kConnections = 2;
constexpr int kSetups = 3;  // before and again after the timed phase
// Requests per second per connection the latency buffers are sized for.
constexpr std::size_t kMaxRate = 80'000;
constexpr std::size_t kReplayWarm = 200'000;
constexpr std::size_t kReplayRequests = 40'000;

struct Pool {
  std::vector<NodeId> sources;
  std::vector<NodeId> targets;
  std::vector<Dist> ref;              // [source * kTargets + target]
  std::vector<std::uint32_t> by_rank;  // popularity rank -> pool index
  std::vector<double> cdf;             // Zipf CDF over ranks

  std::size_t size() const { return sources.size() * targets.size(); }
  NodeId s(std::size_t p) const { return sources[p / targets.size()]; }
  NodeId t(std::size_t p) const { return targets[p % targets.size()]; }

  std::size_t Draw(ah::Rng& rng) const {
    const double u = rng.UniformDouble() * cdf.back();
    const std::size_t rank = static_cast<std::size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    return by_rank[std::min(rank, cdf.size() - 1)];
  }
};

Pool BuildPool(const ah::Graph& g, const RefGraph& ref, std::uint64_t seed) {
  Pool pool;
  ah::Rng rng(Mix(seed, 1));
  for (std::size_t i = 0; i < kSources; ++i) {
    pool.sources.push_back(static_cast<NodeId>(rng.Uniform(g.NumNodes())));
  }
  for (std::size_t j = 0; j < kTargets; ++j) {
    pool.targets.push_back(static_cast<NodeId>(rng.Uniform(g.NumNodes())));
  }
  std::vector<Dist> dist;
  pool.ref.reserve(pool.size());
  for (NodeId s : pool.sources) {
    ref.Distances(s, &dist);
    for (NodeId t : pool.targets) pool.ref.push_back(dist[t]);
  }
  pool.by_rank.resize(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    pool.by_rank[i] = static_cast<std::uint32_t>(i);
  }
  for (std::size_t i = pool.size(); i > 1; --i) {
    std::swap(pool.by_rank[i - 1], pool.by_rank[rng.Uniform(i)]);
  }
  pool.cdf.resize(pool.size());
  double sum = 0;
  for (std::size_t r = 0; r < pool.size(); ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    pool.cdf[r] = sum;
  }
  return pool;
}

// One v2 distance round trip; *dist is the answer of an OK reply.
bool Distance(Conn& conn, NodeId s, NodeId t, std::uint64_t id, Step* r,
              Dist* dist) {
  const std::string frame = PointFrame(Op::kDistance, s, t, id);
  r->sent_ns = NowNs();
  r->transport_ok = conn.Send(frame);
  Op op = Op::kHello;
  std::uint8_t status = 0;
  std::uint64_t reply_id = 0;
  std::string_view payload;
  if (r->transport_ok) {
    r->transport_ok = conn.ReadFrame(&op, &status, &reply_id, &payload);
  }
  if (!r->transport_ok) return false;
  const bool ok = status == 0 && op == Op::kDistance && reply_id == id &&
                  payload.size() == 8;
  if (ok) *dist = GetU64(payload.data());
  r->done_ns = NowNs();
  r->answers = 1;
  return ok;
}

}  // namespace

Result RunHotHl(const Options& options) {
  const ah::Graph g = ah::MakeScaledDataset(*ah::FindDataset("DE"), kScale);
  const RefGraph ref(g);
  const Pool pool = BuildPool(g, ref, options.seed);
  std::printf("graph: DE x%.2f, %zu nodes, %zu arcs; pool %zu x %zu = %zu "
              "pairs, Zipf exponent %.2f\n",
              kScale, g.NumNodes(), g.NumArcs(), kSources, kTargets,
              pool.size(), kZipfExponent);

  // Every reply is compared with the precomputed reference distance.
  std::vector<std::pair<std::size_t, Dist>> last_reply(kConnections);
  Workload w;
  w.backend = "hl";
  w.setups = kSetups;
  w.v2 = true;
  w.connections = kConnections;
  w.max_rate = kMaxRate;
  w.first = [&](Conn& conn) {
    Step r;
    Dist d = 0;
    return Distance(conn, pool.s(0), pool.t(0), 1, &r, &d) && d == pool.ref[0];
  };
  w.make_step = [&](int c, Conn& conn) -> StepFn {
    return [&, c, rng = ah::Rng(Mix(options.seed, 100 + c))](
               std::uint64_t seq) mutable {
      Step r;
      const std::size_t p = pool.Draw(rng);
      Dist d = 0;
      r.ok = Distance(conn, pool.s(p), pool.t(p), seq + 1, &r, &d) &&
             d == pool.ref[p];
      last_reply[c] = {p, d};
      if (r.transport_ok && !r.ok) {
        std::fprintf(stderr, "hot-hl: bad reply to d %u %u\n", pool.s(p),
                     pool.t(p));
      }
      return r;
    };
  };
  w.check = [&](Result* result) {
    std::printf("checked: every reply against the reference distance\n");
    // Self-test: a served answer off by one must fail the same check.
    const auto [p, d] = last_reply[0];
    const bool caught = d == pool.ref[p] && d + 1 != pool.ref[p];
    std::printf("selftest: %d/1 corrupted replies rejected (distance off by "
                "one)\n", caught ? 1 : 0);
    if (!caught) result->Incorrect("checker self-test");
  };
  w.replay = [&] {
    ReplayStream stream;
    stream.kind = ReplayKind::kDistance;
    stream.v2 = true;
    stream.threads = kConnections;
    ah::Rng rng(Mix(options.seed, 200));
    for (std::size_t i = 0; i < kReplayWarm + kReplayRequests; ++i) {
      const std::size_t p = pool.Draw(rng);
      auto& list = i < kReplayWarm ? stream.warm : stream.items;
      list.push_back(ReplayItem{pool.s(p), pool.t(p), pool.ref[p], {}, {}});
    }
    return stream;
  };
  return Drive(options, g, w);
}

}  // namespace perfbench
