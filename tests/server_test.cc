// The serving stack: protocol round-trip (including malformed input, the
// use/upd/reload admin verbs, and the `m` matrix verb with its location
// cap), the v2 binary codec (request/reply round-trips, validation parity
// with the text parser, and the ReplyFrameToText equivalence oracle),
// result-cache correctness with generation tags and TTL (cached
// answers cross-checked against Dijkstra, matrices bypassing the cache and
// reflecting new weights after a hot swap), admission-
// control shedding and deadlines under a saturated bounded queue, the
// latency histogram, localhost TCP end-to-end smoke tests for both wire
// protocols (negotiation, partial frames, oversized-frame rejection,
// pipelined out-of-order v2 replies, mixed v1/v2 clients), and a hot swap
// under live concurrent TCP load. The CI tsan job runs this suite under
// -fsanitize=thread.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/distance_oracle.h"
#include "api/index_registry.h"
#include "graph/weight_update.h"
#include "routing/dijkstra.h"
#include "routing/path.h"
#include "server/admission.h"
#include "server/binary_protocol.h"
#include "server/line_client.h"
#include "server/protocol.h"
#include "server/request_stats.h"
#include "server/result_cache.h"
#include "server/server_stack.h"
#include "server/tcp_server.h"
#include "test_util.h"

namespace ah::server {
namespace {

constexpr ParseLimits kLimits{/*num_nodes=*/100, /*max_batch=*/8};

bool StartsWith(const std::string& s, std::string_view prefix) {
  return s.rfind(prefix, 0) == 0;
}

// ---------------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------------

TEST(ProtocolTest, ParsesEveryRequestKind) {
  ParseResult r = ParseRequest("d 3 99", kLimits);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.request.kind, RequestKind::kDistance);
  EXPECT_EQ(r.request.s, 3u);
  EXPECT_EQ(r.request.t, 99u);

  r = ParseRequest("p 0 1", kLimits);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.request.kind, RequestKind::kPath);

  r = ParseRequest("k 5 3", kLimits);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.request.kind, RequestKind::kKNearest);
  EXPECT_EQ(r.request.s, 5u);
  EXPECT_EQ(r.request.k, 3u);

  r = ParseRequest("b 2 0 1 2 3", kLimits);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.request.kind, RequestKind::kBatch);
  ASSERT_EQ(r.request.pairs.size(), 2u);
  EXPECT_EQ(r.request.pairs[0], (std::pair<NodeId, NodeId>{0, 1}));
  EXPECT_EQ(r.request.pairs[1], (std::pair<NodeId, NodeId>{2, 3}));

  r = ParseRequest("m 2 3 7 8 0 1 2", kLimits);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.request.kind, RequestKind::kMatrix);
  EXPECT_EQ(r.request.sources, (std::vector<NodeId>{7, 8}));
  EXPECT_EQ(r.request.targets, (std::vector<NodeId>{0, 1, 2}));
  // Backend selector applies to matrix requests too.
  r = ParseRequest("@ch m 1 1 0 5", kLimits);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.request.kind, RequestKind::kMatrix);
  EXPECT_EQ(r.request.backend, "ch");

  EXPECT_EQ(ParseRequest("stats", kLimits).request.kind, RequestKind::kStats);
  EXPECT_EQ(ParseRequest("inv", kLimits).request.kind,
            RequestKind::kInvalidate);
  EXPECT_EQ(ParseRequest("q", kLimits).request.kind, RequestKind::kQuit);
  // Whitespace tolerance.
  EXPECT_TRUE(ParseRequest("  d \t 1   2  ", kLimits).ok);
}

TEST(ProtocolTest, ParsesAdminVerbsAndBackendSelector) {
  ParseResult r = ParseRequest("use ch", kLimits);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.request.kind, RequestKind::kUse);
  EXPECT_EQ(r.request.backend, "ch");

  r = ParseRequest("upd 3 7 42", kLimits);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.request.kind, RequestKind::kUpdate);
  EXPECT_EQ(r.request.s, 3u);
  EXPECT_EQ(r.request.t, 7u);
  EXPECT_EQ(r.request.weight, 42u);

  r = ParseRequest("updf /tmp/deltas.bin", kLimits);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.request.kind, RequestKind::kUpdateFile);
  EXPECT_EQ(r.request.path, "/tmp/deltas.bin");

  EXPECT_EQ(ParseRequest("reload", kLimits).request.kind, RequestKind::kReload);

  // Backend selector prefix, alone and after the version token.
  r = ParseRequest("@alt d 1 2", kLimits);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.request.kind, RequestKind::kDistance);
  EXPECT_EQ(r.request.backend, "alt");
  r = ParseRequest("AH/1 @alt b 1 0 1", kLimits);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.request.kind, RequestKind::kBatch);
  EXPECT_EQ(r.request.backend, "alt");
  // No selector: backend stays empty (= server default).
  EXPECT_TRUE(ParseRequest("d 1 2", kLimits).request.backend.empty());
}

TEST(ProtocolTest, MalformedAdminVerbsAreRejected) {
  const struct {
    const char* line;
    ErrorCode code;
  } cases[] = {
      {"use", ErrorCode::kBadRequest},
      {"use ch alt", ErrorCode::kBadRequest},
      {"upd 1 2", ErrorCode::kBadRequest},      // missing weight
      {"upd 1 2 3 4", ErrorCode::kBadRequest},  // trailing junk
      {"upd 1 2 0", ErrorCode::kBadRequest},    // zero weight
      {"upd 1 2 -5", ErrorCode::kBadRequest},   // negative weight
      {"upd -1 2 5", ErrorCode::kBadNode},
      {"upd 1 100 5", ErrorCode::kBadNode},     // out of range
      {"updf", ErrorCode::kBadRequest},         // missing path
      {"updf a b", ErrorCode::kBadRequest},     // trailing junk
      {"@ch updf f", ErrorCode::kBadRequest},   // selector on admin verb
      {"reload now", ErrorCode::kBadRequest},
      {"@ d 1 2", ErrorCode::kBadRequest},      // empty selector token
      {"@ch stats", ErrorCode::kBadRequest},    // selector on admin verb
      {"@ch use alt", ErrorCode::kBadRequest},
      {"@ch reload", ErrorCode::kBadRequest},
  };
  for (const auto& c : cases) {
    const ParseResult r = ParseRequest(c.line, kLimits);
    EXPECT_FALSE(r.ok) << "line: '" << c.line << "'";
    EXPECT_EQ(r.code, c.code) << "line: '" << c.line << "'";
  }
}

TEST(ProtocolTest, VersionPrefixAcceptedAndRejected) {
  EXPECT_TRUE(ParseRequest("AH/1 d 0 1", kLimits).ok);
  const ParseResult bad = ParseRequest("AH/2 d 0 1", kLimits);
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.code, ErrorCode::kUnsupportedVersion);
  EXPECT_FALSE(ParseRequest("AH/x d 0 1", kLimits).ok);
}

TEST(ProtocolTest, MalformedInputYieldsStructuredErrors) {
  const struct {
    const char* line;
    ErrorCode code;
  } cases[] = {
      {"", ErrorCode::kBadRequest},
      {"   ", ErrorCode::kBadRequest},
      {"zzz 1 2", ErrorCode::kBadRequest},
      {"d 1", ErrorCode::kBadRequest},        // missing arg
      {"d 1 2 3", ErrorCode::kBadRequest},    // trailing junk
      {"d -1 2", ErrorCode::kBadNode},        // negative: no clamping
      {"d 1e3 2", ErrorCode::kBadNode},       // non-decimal
      {"d 0x10 2", ErrorCode::kBadNode},
      {"d 1 100", ErrorCode::kBadNode},       // == num_nodes: out of range
      {"d 1 18446744073709551616", ErrorCode::kBadNode},  // > uint64
      {"k 1 0", ErrorCode::kBadRequest},      // k must be positive
      {"k 1 -3", ErrorCode::kBadRequest},
      {"b 0", ErrorCode::kBadRequest},        // empty batch
      {"b 2 0 1", ErrorCode::kBadRequest},    // wrong pair count
      {"b 2 0 1 2 3 4", ErrorCode::kBadRequest},
      {"b 9 0 1 0 1 0 1 0 1 0 1 0 1 0 1 0 1 0 1",
       ErrorCode::kBadRequest},               // over max_batch = 8
      {"m", ErrorCode::kBadRequest},
      {"m 0 2 1 2", ErrorCode::kBadRequest},     // zero sources
      {"m 2 0 1 2", ErrorCode::kBadRequest},     // zero targets
      {"m 2 2 0 1 2", ErrorCode::kBadRequest},   // wrong node count
      {"m 1 1 0 100", ErrorCode::kBadNode},      // target out of range
      {"stats now", ErrorCode::kBadRequest},
      {"q please", ErrorCode::kBadRequest},
  };
  for (const auto& c : cases) {
    const ParseResult r = ParseRequest(c.line, kLimits);
    EXPECT_FALSE(r.ok) << "line: '" << c.line << "'";
    EXPECT_EQ(r.code, c.code) << "line: '" << c.line << "'";
    EXPECT_FALSE(r.message.empty()) << "line: '" << c.line << "'";
  }
}

TEST(ProtocolTest, MatrixLocationCapAnswersTooLarge) {
  // The cap is checked before arity so an over-limit client learns the
  // policy without shipping the full location list.
  constexpr ParseLimits tight{/*num_nodes=*/100, /*max_batch=*/8,
                              /*max_matrix_locations=*/2};
  ParseResult r = ParseRequest("m 3 1 0", tight);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, ErrorCode::kTooLarge);
  r = ParseRequest("m 1 3 0", tight);
  EXPECT_EQ(r.code, ErrorCode::kTooLarge);
  EXPECT_TRUE(ParseRequest("m 2 2 0 1 2 3", tight).ok);  // at the cap

  constexpr ParseLimits disabled{/*num_nodes=*/100, /*max_batch=*/8,
                                 /*max_matrix_locations=*/0};
  r = ParseRequest("m 1 1 0 1", disabled);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, ErrorCode::kTooLarge);
}

TEST(ProtocolTest, FormatsDistinguishUnreachableFromErrors) {
  EXPECT_EQ(FormatDistance(42), "OK d 42");
  EXPECT_EQ(FormatDistance(kInfDist), "OK d unreachable");

  PathResult path;
  EXPECT_EQ(FormatPath(path), "OK p unreachable");
  path.length = 7;
  path.nodes = {1, 5, 9};
  EXPECT_EQ(FormatPath(path), "OK p 7 3 1 5 9");

  EXPECT_EQ(FormatBatch({3, kInfDist, 0}), "OK b 3 3 unreachable 0");
  EXPECT_EQ(FormatKNearest({{5, 2}, {9, 7}}), "OK k 2 2 5 7 9");
  EXPECT_EQ(FormatMatrix(2, 2, {3, kInfDist, 0, 7}),
            "OK m 2 2 3 unreachable 0 7");

  EXPECT_EQ(FormatError(ErrorCode::kBadNode, "node id 7 out of range"),
            "ERR bad-node node id 7 out of range");
  EXPECT_EQ(FormatError(ErrorCode::kOverload, ""), "ERR overload");
  EXPECT_EQ(Greeting(10, 20), "AH/1 ready 10 nodes 20 arcs");
}

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

// Samples are microseconds, buckets nanoseconds: exact below 8 ns, within
// one log-linear bucket width (12.5%) above.
TEST(LatencyHistogramTest, ExactForSmallValuesAndBoundedErrorAbove) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.Quantile(0.5), 0);
  for (int ns : {0, 1, 2, 3, 4, 5, 6, 7}) hist.Record(ns / 1e3);
  EXPECT_EQ(hist.Count(), 8u);
  EXPECT_DOUBLE_EQ(hist.Quantile(0.0), 0);      // rank clamps to 1st sample
  EXPECT_DOUBLE_EQ(hist.Quantile(0.5), 0.003);  // nearest rank: 4th of 8
  EXPECT_DOUBLE_EQ(hist.Quantile(1.0), 0.007);

  for (const double us : {3.0, 1000.0}) {
    LatencyHistogram coarse;
    coarse.Record(us);
    const double q = coarse.Quantile(0.99);
    EXPECT_GE(q, us);
    EXPECT_LE(q, us * 1.125);  // log-linear bucket width
  }
}

// An inline hub-label answer takes well under a microsecond of index work;
// its latency must not round to 0.
TEST(LatencyHistogramTest, SubMicrosecondSamplesDoNotReadAsZero) {
  LatencyHistogram hist;
  hist.Record(0.3);
  EXPECT_GE(hist.Quantile(0.5), 0.3);
  EXPECT_LE(hist.Quantile(0.5), 0.3 * 1.125);
}

TEST(LatencyHistogramTest, MergeAndReset) {
  LatencyHistogram a;
  LatencyHistogram b;
  for (int i = 0; i < 50; ++i) a.Record(1);
  for (int i = 0; i < 50; ++i) b.Record(1 << 20);
  a.Merge(b);
  EXPECT_EQ(a.Count(), 100u);
  EXPECT_GE(a.Quantile(0.25), 1);
  EXPECT_LE(a.Quantile(0.25), 1.125);
  EXPECT_GE(a.Quantile(0.99), 1 << 20);
  a.Reset();
  EXPECT_EQ(a.Count(), 0u);
}

// ---------------------------------------------------------------------------
// ResultCache
// ---------------------------------------------------------------------------

TEST(ResultCacheTest, HitMissInsertAndStats) {
  ResultCache cache(64, 4);
  const CacheKey key{1, 2, CachedKind::kDistance};
  CachedResult out;
  EXPECT_FALSE(cache.Lookup(key, 1, &out));
  cache.Insert(key, 1, CachedResult{77, {}});
  ASSERT_TRUE(cache.Lookup(key, 1, &out));
  EXPECT_EQ(out.dist, 77u);
  // Same pair, path kind: a distinct entry.
  EXPECT_FALSE(cache.Lookup(CacheKey{1, 2, CachedKind::kPath}, 1, &out));
  // Same pair and kind, other backend: also a distinct entry.
  EXPECT_FALSE(
      cache.Lookup(CacheKey{1, 2, CachedKind::kDistance, /*backend=*/1}, 1,
                   &out));

  const CacheStats stats = cache.Totals();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_NEAR(stats.HitRate(), 1.0 / 4.0, 1e-9);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsed) {
  // One shard, two entries, so recency is global and deterministic.
  ResultCache cache(2, 1);
  const CacheKey a{0, 1, CachedKind::kDistance};
  const CacheKey b{0, 2, CachedKind::kDistance};
  const CacheKey c{0, 3, CachedKind::kDistance};
  cache.Insert(a, 1, CachedResult{1, {}});
  cache.Insert(b, 1, CachedResult{2, {}});
  CachedResult out;
  ASSERT_TRUE(cache.Lookup(a, 1, &out));  // promote a; b is now LRU
  cache.Insert(c, 1, CachedResult{3, {}});
  EXPECT_EQ(cache.Totals().evictions, 1u);
  EXPECT_TRUE(cache.Lookup(a, 1, &out));
  EXPECT_FALSE(cache.Lookup(b, 1, &out));  // evicted
  EXPECT_TRUE(cache.Lookup(c, 1, &out));
  EXPECT_EQ(cache.Size(), 2u);
}

TEST(ResultCacheTest, StaleGenerationIsDroppedAndCounted) {
  ResultCache cache(64, 4);
  const CacheKey ch_key{1, 2, CachedKind::kDistance, /*backend=*/0};
  const CacheKey alt_key{1, 2, CachedKind::kDistance, /*backend=*/1};
  cache.Insert(ch_key, 1, CachedResult{10, {}});
  cache.Insert(alt_key, 1, CachedResult{10, {}});

  // Backend 0 swapped to generation 2: its entry is invalidated on sight;
  // backend 1 (still generation 1) keeps hitting — no global flush.
  CachedResult out;
  EXPECT_FALSE(cache.Lookup(ch_key, 2, &out));
  EXPECT_EQ(cache.Totals().invalidations, 1u);
  EXPECT_TRUE(cache.Lookup(alt_key, 1, &out));
  // The stale entry was erased, so a fresh-generation insert takes over.
  cache.Insert(ch_key, 2, CachedResult{20, {}});
  ASSERT_TRUE(cache.Lookup(ch_key, 2, &out));
  EXPECT_EQ(out.dist, 20u);
  EXPECT_EQ(cache.Totals().clears, 0u);

  // A reader/writer still leased to the retired generation 1 must neither
  // erase nor overwrite the fresh entry: plain miss, dropped insert.
  EXPECT_FALSE(cache.Lookup(ch_key, 1, &out));
  cache.Insert(ch_key, 1, CachedResult{99, {}});
  ASSERT_TRUE(cache.Lookup(ch_key, 2, &out));
  EXPECT_EQ(out.dist, 20u);
  EXPECT_EQ(cache.Totals().invalidations, 1u);  // only the original drop
}

TEST(ResultCacheTest, TtlExpiresEntries) {
  // Generous TTL so a loaded machine cannot expire the entry before the
  // "fresh" lookup below; the expiry check then sleeps past it for sure.
  ResultCache cache(64, 4, std::chrono::milliseconds(200));
  EXPECT_EQ(cache.Ttl().count(), 200);
  const CacheKey key{3, 4, CachedKind::kDistance};
  cache.Insert(key, 1, CachedResult{9, {}});
  CachedResult out;
  ASSERT_TRUE(cache.Lookup(key, 1, &out));  // fresh
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  EXPECT_FALSE(cache.Lookup(key, 1, &out));  // expired + dropped
  const CacheStats stats = cache.Totals();
  EXPECT_EQ(stats.expirations, 1u);
  EXPECT_EQ(stats.invalidations, 0u);
  EXPECT_EQ(cache.Size(), 0u);
}

TEST(ResultCacheTest, ClearInvalidatesEverythingAndCounts) {
  ResultCache cache(64, 4);
  for (NodeId i = 0; i < 10; ++i) {
    cache.Insert(CacheKey{i, i, CachedKind::kDistance}, 1, CachedResult{i, {}});
  }
  EXPECT_EQ(cache.Size(), 10u);
  cache.Clear();
  EXPECT_EQ(cache.Size(), 0u);
  CachedResult out;
  EXPECT_FALSE(cache.Lookup(CacheKey{1, 1, CachedKind::kDistance}, 1, &out));
  EXPECT_EQ(cache.Totals().clears, 1u);
  EXPECT_EQ(cache.Totals().invalidations, 0u);
}

TEST(ResultCacheTest, ZeroCapacityDisables) {
  ResultCache cache(0);
  EXPECT_FALSE(cache.Enabled());
  cache.Insert(CacheKey{1, 2, CachedKind::kDistance}, 1, CachedResult{7, {}});
  CachedResult out;
  EXPECT_FALSE(cache.Lookup(CacheKey{1, 2, CachedKind::kDistance}, 1, &out));
  EXPECT_EQ(cache.Size(), 0u);
}

// ---------------------------------------------------------------------------
// AdmissionController
// ---------------------------------------------------------------------------

TEST(AdmissionTest, BoundsInFlightAndCountsSheds) {
  AdmissionController admission(AdmissionConfig{2, std::chrono::milliseconds(0)});
  EXPECT_TRUE(admission.TryAdmit());
  EXPECT_TRUE(admission.TryAdmit());
  EXPECT_FALSE(admission.TryAdmit());  // full
  EXPECT_EQ(admission.InFlight(), 2u);
  admission.Release();
  EXPECT_TRUE(admission.TryAdmit());
  admission.Release();
  admission.Release();
  const AdmissionStats stats = admission.Totals();
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.shed, 1u);
  admission.WaitIdle();  // returns immediately at zero in flight
}

TEST(AdmissionTest, PerClientCapShedsTheGreedyClientOnly) {
  // Global budget 8, per-client cap 2: client 1 floods, client 2 trickles.
  AdmissionController admission(
      AdmissionConfig{8, std::chrono::milliseconds(0), 2});
  EXPECT_TRUE(admission.TryAdmit(1));
  EXPECT_TRUE(admission.TryAdmit(1));
  EXPECT_FALSE(admission.TryAdmit(1));  // over its own cap...
  EXPECT_TRUE(admission.TryAdmit(2));   // ...while others still get in
  EXPECT_TRUE(admission.TryAdmit());    // unattributed: global budget only
  EXPECT_EQ(admission.ClientInFlight(1), 2u);
  EXPECT_EQ(admission.ClientInFlight(2), 1u);
  EXPECT_EQ(admission.InFlight(), 4u);

  const AdmissionStats stats = admission.Totals();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.shed_per_client, 1u);

  // Releasing one of the flooder's slots readmits it.
  admission.Release(1);
  EXPECT_TRUE(admission.TryAdmit(1));
  admission.Release(1);
  admission.Release(1);
  admission.Release(2);
  admission.Release();
  EXPECT_EQ(admission.ClientInFlight(1), 0u);  // entry erased at zero
  EXPECT_EQ(admission.InFlight(), 0u);
  admission.WaitIdle();
}

TEST(AdmissionTest, DeadlinesRespectTimeoutConfig) {
  AdmissionController no_deadline(
      AdmissionConfig{1, std::chrono::milliseconds(0)});
  EXPECT_EQ(no_deadline.MakeDeadline(), AdmissionController::Deadline::max());
  EXPECT_FALSE(AdmissionController::Expired(no_deadline.MakeDeadline()));

  AdmissionController tight(AdmissionConfig{1, std::chrono::milliseconds(1)});
  const auto deadline = tight.MakeDeadline();
  EXPECT_FALSE(AdmissionController::Expired(
      AdmissionController::Clock::now() + std::chrono::seconds(1)));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(AdmissionController::Expired(deadline));
}

// ---------------------------------------------------------------------------
// ServerStack
// ---------------------------------------------------------------------------

std::vector<std::string> Tokens(const std::string& reply) {
  std::istringstream in(reply);
  std::vector<std::string> tokens;
  std::string token;
  while (in >> token) tokens.push_back(token);
  return tokens;
}

class ServerStackTest : public ::testing::Test {
 protected:
  ServerStackTest() : graph_(testing::MakeRoadGraph(8, 17)) {}

  ServerConfig SmallConfig() const {
    ServerConfig config;
    config.cache_capacity = 256;
    config.cache_shards = 4;
    config.admission_capacity = 8;
    config.request_timeout = std::chrono::milliseconds(0);  // no deadlines
    config.max_batch = 64;
    config.num_threads = 2;
    return config;
  }

  Graph graph_;
};

TEST_F(ServerStackTest, AnswersMatchDijkstraAndRepeatsHitTheCache) {
  ServerStack stack(MakeOracle("ch", graph_), SmallConfig());
  Dijkstra reference(graph_);
  const NodeId n = static_cast<NodeId>(graph_.NumNodes());

  std::vector<std::string> first_replies;
  for (NodeId t = 0; t < n; t += 7) {
    const std::string query = "d 3 " + std::to_string(t);
    const std::string reply = stack.HandleLine(query);
    EXPECT_EQ(reply, FormatDistance(reference.Distance(3, t))) << query;
    first_replies.push_back(reply);
  }
  const CacheStats cold = stack.cache().Totals();
  EXPECT_EQ(cold.hits, 0u);
  EXPECT_GT(cold.insertions, 0u);

  // Second pass: identical replies, all from the cache.
  std::size_t i = 0;
  for (NodeId t = 0; t < n; t += 7) {
    EXPECT_EQ(stack.HandleLine("d 3 " + std::to_string(t)),
              first_replies[i++]);
  }
  const CacheStats warm = stack.cache().Totals();
  EXPECT_EQ(warm.hits, cold.misses);
  EXPECT_GT(warm.HitRate(), 0.0);
  EXPECT_EQ(warm.insertions, cold.insertions);  // no recompute on hits
}

TEST_F(ServerStackTest, PathRepliesAreValidCachedAndIdentical) {
  ServerStack stack(MakeOracle("ch", graph_), SmallConfig());
  Dijkstra reference(graph_);
  const NodeId t = static_cast<NodeId>(graph_.NumNodes() - 1);
  const std::string query = "p 0 " + std::to_string(t);

  const std::string uncached = stack.HandleLine(query);
  const std::string cached = stack.HandleLine(query);
  EXPECT_EQ(uncached, cached);  // bit-identical from the cache
  EXPECT_GT(stack.cache().Totals().hits, 0u);

  const std::vector<std::string> tokens = Tokens(uncached);
  ASSERT_GE(tokens.size(), 4u);
  ASSERT_EQ(tokens[0], "OK");
  ASSERT_EQ(tokens[1], "p");
  const Dist length = std::stoull(tokens[2]);
  EXPECT_EQ(length, reference.Distance(0, t));
  const std::size_t count = std::stoull(tokens[3]);
  ASSERT_EQ(tokens.size(), 4 + count);
  std::vector<NodeId> nodes;
  for (std::size_t i = 0; i < count; ++i) {
    nodes.push_back(static_cast<NodeId>(std::stoul(tokens[4 + i])));
  }
  EXPECT_TRUE(IsValidPath(graph_, nodes, 0, t, length));
}

TEST_F(ServerStackTest, BatchAndKNearestMatchReference) {
  ServerStack stack(MakeOracle("ch", graph_), SmallConfig());
  stack.SetPois({1, 5, 9, 13, 17});
  Dijkstra reference(graph_);

  EXPECT_EQ(stack.HandleLine("b 3 0 9 9 0 0 0"),
            FormatBatch({reference.Distance(0, 9), reference.Distance(9, 0),
                         reference.Distance(0, 0)}));

  // k-nearest cross-check: recompute the expected (dist, node) ranking.
  std::vector<std::pair<Dist, NodeId>> expected;
  for (const NodeId poi : stack.Pois()) {
    const Dist d = reference.Distance(2, poi);
    if (d != kInfDist) expected.emplace_back(d, poi);
  }
  std::sort(expected.begin(), expected.end());
  expected.resize(std::min<std::size_t>(3, expected.size()));
  EXPECT_EQ(stack.HandleLine("k 2 3"), FormatKNearest(expected));
}

std::string MatrixQuery(const std::vector<NodeId>& sources,
                        const std::vector<NodeId>& targets) {
  std::string query = "m ";
  query += std::to_string(sources.size());
  query += ' ';
  query += std::to_string(targets.size());
  for (const NodeId s : sources) {
    query += ' ';
    query += std::to_string(s);
  }
  for (const NodeId t : targets) {
    query += ' ';
    query += std::to_string(t);
  }
  return query;
}

TEST_F(ServerStackTest, MatrixMatchesReference) {
  ServerStack stack(MakeOracle("ch", graph_), SmallConfig());
  Dijkstra reference(graph_);
  const NodeId n = static_cast<NodeId>(graph_.NumNodes());
  const std::vector<NodeId> sources = {0, static_cast<NodeId>(n / 2)};
  const std::vector<NodeId> targets = {static_cast<NodeId>(n - 1), 3};
  std::vector<Dist> cells;
  for (const NodeId s : sources) {
    for (const NodeId t : targets) cells.push_back(reference.Distance(s, t));
  }
  EXPECT_EQ(stack.HandleLine(MatrixQuery(sources, targets)),
            FormatMatrix(2, 2, cells));
  EXPECT_EQ(stack.stats().OkCount(), 1u);
}

// Matrices bypass the result cache in both directions, whatever their
// size: no probe (hits and misses stay put) and no inserts, while every
// cell still answers exactly and a repeat answers identically.
TEST_F(ServerStackTest, MatricesNeverTouchTheResultCache) {
  ServerStack stack(MakeOracle("ch", graph_), SmallConfig());
  Dijkstra reference(graph_);
  const NodeId n = static_cast<NodeId>(graph_.NumNodes());
  for (const std::size_t side : {std::size_t{2}, std::size_t{40}}) {
    std::vector<NodeId> sources, targets;
    for (std::size_t i = 0; i < side; ++i) {
      sources.push_back(static_cast<NodeId>(i % n));
      targets.push_back(static_cast<NodeId>((i * 7 + 3) % n));
    }
    std::vector<Dist> cells;
    for (const NodeId s : sources) {
      for (const NodeId t : targets) cells.push_back(reference.Distance(s, t));
    }
    const std::string query = MatrixQuery(sources, targets);
    const std::string expected = FormatMatrix(side, side, cells);

    const CacheStats before = stack.cache().Totals();
    EXPECT_EQ(stack.HandleLine(query), expected) << side << "x" << side;
    EXPECT_EQ(stack.HandleLine(query), expected) << side << "x" << side;
    const CacheStats after = stack.cache().Totals();
    EXPECT_EQ(after.hits, before.hits) << side << "x" << side;
    EXPECT_EQ(after.misses, before.misses) << side << "x" << side;
    EXPECT_EQ(after.insertions, before.insertions) << side << "x" << side;
  }
  EXPECT_EQ(stack.cache().Size(), 0u);
}

TEST_F(ServerStackTest, MatrixCapAndDisabledAnswerTooLarge) {
  ServerConfig config = SmallConfig();
  config.max_matrix_locations = 2;
  ServerStack stack(MakeOracle("dijkstra", graph_), config);
  EXPECT_TRUE(StartsWith(stack.HandleLine("m 3 1 0 1 2 3"), "ERR too-large"));
  EXPECT_TRUE(StartsWith(stack.HandleLine("m 2 2 0 1 2 3"), "OK m 2 2"));

  config.max_matrix_locations = 0;  // matrix surface switched off
  ServerStack disabled(MakeOracle("dijkstra", graph_), config);
  EXPECT_TRUE(StartsWith(disabled.HandleLine("m 1 1 0 1"), "ERR too-large"));
  EXPECT_TRUE(StartsWith(disabled.HandleLine("d 0 1"), "OK d"));
}

// A matrix after upd+reload reflects the new weights, with no Clear()
// involved: it is computed on the epoch the request leased.
TEST_F(ServerStackTest, MatrixReflectsNewWeightsAfterHotSwap) {
  auto registry = std::make_shared<IndexRegistry>(
      graph_, std::vector<std::string>{"ch"});
  ServerStack stack(registry, SmallConfig());

  ASSERT_GT(graph_.OutArcs(0).size(), 0u);
  const NodeId via = graph_.OutArcs(0)[0].head;
  const Weight new_weight =
      static_cast<Weight>(graph_.OutArcs(0)[0].weight * 1000 + 1);
  Graph updated = graph_;
  updated.SetArcWeight(0, via, new_weight);
  Dijkstra before(graph_);
  Dijkstra after(updated);

  const NodeId n = static_cast<NodeId>(graph_.NumNodes());
  const std::vector<NodeId> sources = {0, via};
  const std::vector<NodeId> targets = {via, static_cast<NodeId>(n - 1)};
  std::vector<Dist> old_cells, new_cells;
  for (const NodeId s : sources) {
    for (const NodeId t : targets) {
      old_cells.push_back(before.Distance(s, t));
      new_cells.push_back(after.Distance(s, t));
    }
  }
  ASSERT_NE(old_cells, new_cells) << "weight delta must change some cell";
  const std::string query = MatrixQuery(sources, targets);
  ASSERT_EQ(stack.HandleLine(query), FormatMatrix(2, 2, old_cells));

  ASSERT_EQ(stack.HandleLine("upd 0 " + std::to_string(via) + " " +
                             std::to_string(new_weight)),
            "OK upd 1");
  ASSERT_EQ(stack.HandleLine("reload"), "OK reload 1");
  registry->WaitForRebuild();

  EXPECT_EQ(stack.HandleLine(query), FormatMatrix(2, 2, new_cells));
  EXPECT_EQ(stack.cache().Totals().clears, 0u);
}

// Tie-heavy k-nearest through the protocol: every POI is equidistant from
// the queried hub, so the reply order is decided purely by the (dist, node
// id) tie-break — it must be ascending ids regardless of the POI set order
// or the backend that served it.
TEST_F(ServerStackTest, KNearestBreaksTiesByNodeIdThroughTheProtocol) {
  constexpr std::size_t kSpokes = 10;
  GraphBuilder builder(kSpokes + 1);
  builder.AddNode(Point{0, 0});
  for (std::size_t i = 1; i <= kSpokes; ++i) {
    builder.AddNode(Point{static_cast<std::int32_t>(100 * i), 100});
    builder.AddArc(0, static_cast<NodeId>(i), 7);
    builder.AddArc(static_cast<NodeId>(i), 0, 7);
  }
  const Graph star = builder.Build();
  for (const char* backend : {"ch", "hl", "dijkstra"}) {
    ServerStack stack(MakeOracle(backend, star), SmallConfig());
    // POIs in descending id order: the reply must not echo it.
    std::vector<NodeId> pois;
    for (std::size_t i = kSpokes; i >= 1; --i) {
      pois.push_back(static_cast<NodeId>(i));
    }
    stack.SetPois(std::move(pois));
    EXPECT_EQ(stack.HandleLine("k 0 4"),
              FormatKNearest({{7, 1}, {7, 2}, {7, 3}, {7, 4}}))
        << backend;
  }
}

TEST_F(ServerStackTest, UnreachableIsAnAnswerNotAnError) {
  const Graph disconnected = testing::MakeDisconnectedGraph(12, 29);
  ServerConfig config = SmallConfig();
  ServerStack stack(MakeOracle("ch", disconnected), config);
  const std::string cross = "d 0 " + std::to_string(12);  // other cluster
  EXPECT_EQ(stack.HandleLine(cross), "OK d unreachable");
  EXPECT_EQ(stack.HandleLine("p 0 12"), "OK p unreachable");
  // Same ids out of range on a smaller graph would be an error instead.
  EXPECT_TRUE(StartsWith(stack.HandleLine("d 0 99999"), "ERR bad-node"));
  EXPECT_EQ(stack.stats().ErrorCount(), 1u);
}

TEST_F(ServerStackTest, MalformedLinesAreErrorsAndCounted) {
  ServerStack stack(MakeOracle("dijkstra", graph_), SmallConfig());
  EXPECT_TRUE(StartsWith(stack.HandleLine("d -1 2"), "ERR bad-node"));
  EXPECT_TRUE(StartsWith(stack.HandleLine("nope"), "ERR bad-request"));
  EXPECT_TRUE(StartsWith(stack.HandleLine("AH/3 d 0 1"),
                         "ERR unsupported-version"));
  EXPECT_TRUE(StartsWith(stack.HandleLine("k 0 2"), "ERR bad-request"))
      << "k-nearest without a POI set must be rejected";
  EXPECT_EQ(stack.stats().ErrorCount(), 4u);
  EXPECT_EQ(stack.stats().OkCount(), 0u);
}

TEST_F(ServerStackTest, SaturatedAdmissionQueueShedsInsteadOfHanging) {
  ServerConfig config = SmallConfig();
  config.cache_capacity = 0;       // force every request through admission
  config.admission_capacity = 1;   // one in flight
  config.num_threads = 1;          // one engine worker to saturate
  ServerStack stack(MakeOracle("dijkstra", graph_), config);

  // Block the only engine worker so the admitted request cannot start.
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  stack.engine().SubmitAsync([gate]() { gate.wait(); });

  std::promise<std::string> admitted;
  std::future<std::string> admitted_reply = admitted.get_future();
  stack.Submit("d 0 1", std::nullopt, [&admitted](std::string reply, bool) {
    admitted.set_value(std::move(reply));
  });

  // The budget is exhausted: the next request is shed synchronously.
  const std::string shed = stack.HandleLine("d 0 2");
  EXPECT_TRUE(StartsWith(shed, "ERR overload")) << shed;
  EXPECT_EQ(stack.admission().Totals().shed, 1u);

  release.set_value();
  EXPECT_TRUE(StartsWith(admitted_reply.get(), "OK d"));
  stack.WaitIdle();
  EXPECT_EQ(stack.admission().Totals().admitted, 1u);
}

// The fairness regression: a flooding client must not consume the whole
// admission budget — its excess is shed with ERR overload while a second
// client's request is still admitted and served.
TEST_F(ServerStackTest, FloodingClientIsShedWhileOthersAreServed) {
  ServerConfig config = SmallConfig();
  config.cache_capacity = 0;        // force every request through admission
  config.admission_capacity = 8;    // global budget with headroom
  config.admission_per_client = 2;  // tight per-client cap
  config.num_threads = 1;           // one engine worker to saturate
  ServerStack stack(MakeOracle("dijkstra", graph_), config);

  // Block the only engine worker so admitted requests stay in flight.
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  stack.engine().SubmitAsync([gate]() { gate.wait(); });

  constexpr std::uint64_t kFlooder = 1, kPolite = 2;
  std::vector<std::future<std::string>> admitted;
  auto submit = [&stack](std::uint64_t client) {
    auto reply = std::make_shared<std::promise<std::string>>();
    std::future<std::string> result = reply->get_future();
    stack.Submit("d 0 1", client, [reply](std::string text, bool) {
      reply->set_value(std::move(text));
    });
    return result;
  };

  // Client 1 floods: the first two are admitted, the rest shed inline.
  admitted.push_back(submit(kFlooder));
  admitted.push_back(submit(kFlooder));
  for (int i = 0; i < 4; ++i) {
    std::future<std::string> shed = submit(kFlooder);
    ASSERT_EQ(shed.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "per-client sheds must be answered synchronously";
    EXPECT_TRUE(StartsWith(shed.get(), "ERR overload"));
  }
  EXPECT_EQ(stack.admission().Totals().shed_per_client, 4u);
  EXPECT_EQ(stack.admission().ClientInFlight(kFlooder), 2u);

  // Client 2 is still admitted — the global budget was never exhausted.
  admitted.push_back(submit(kPolite));
  EXPECT_EQ(stack.admission().ClientInFlight(kPolite), 1u);
  EXPECT_EQ(stack.admission().Totals().shed,
            stack.admission().Totals().shed_per_client)
      << "no request hit the global cap";

  release.set_value();
  for (std::future<std::string>& reply : admitted) {
    EXPECT_TRUE(StartsWith(reply.get(), "OK d"));
  }
  stack.WaitIdle();
  EXPECT_EQ(stack.admission().Totals().admitted, 3u);
  EXPECT_EQ(stack.admission().ClientInFlight(kFlooder), 0u);
}

TEST_F(ServerStackTest, ZeroCapacityShedsEverything) {
  ServerConfig config = SmallConfig();
  config.cache_capacity = 0;
  config.admission_capacity = 0;
  ServerStack stack(MakeOracle("dijkstra", graph_), config);
  EXPECT_TRUE(StartsWith(stack.HandleLine("d 0 1"), "ERR overload"));
  EXPECT_TRUE(StartsWith(stack.HandleLine("b 1 0 1"), "ERR overload"));
  // Admin requests bypass admission.
  EXPECT_TRUE(StartsWith(stack.HandleLine("stats"), "OK stats"));
  EXPECT_EQ(stack.HandleLine("inv"), "OK inv");
}

TEST_F(ServerStackTest, ExpiredDeadlineAnswersTimeout) {
  ServerConfig config = SmallConfig();
  config.cache_capacity = 0;
  config.num_threads = 1;
  config.request_timeout = std::chrono::milliseconds(1);
  ServerStack stack(MakeOracle("dijkstra", graph_), config);

  // Hold the single worker well past the 1ms deadline.
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  stack.engine().SubmitAsync([gate]() { gate.wait(); });

  std::promise<std::string> delayed;
  std::future<std::string> delayed_reply = delayed.get_future();
  stack.Submit("d 0 1", std::nullopt, [&delayed](std::string reply, bool) {
    delayed.set_value(std::move(reply));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release.set_value();

  EXPECT_TRUE(StartsWith(delayed_reply.get(), "ERR timeout"));
  stack.WaitIdle();
  EXPECT_EQ(stack.admission().Totals().expired, 1u);
}

// Which admitted requests run inline: with the engine's only worker
// blocked, an `hl` distance is still answered before Submit/SubmitDecoded
// returns; a `dijkstra` distance and an `hl` path wait for that worker.
TEST_F(ServerStackTest, HlDistancesRunInlineOtherRequestsQueue) {
  auto registry = std::make_shared<IndexRegistry>(
      graph_, std::vector<std::string>{"hl", "dijkstra"});
  ServerConfig config = SmallConfig();
  config.cache_capacity = 0;  // no answer comes from the cache
  config.num_threads = 1;     // one engine worker to block
  ServerStack stack(registry, config);
  Dijkstra reference(graph_);
  const NodeId far = static_cast<NodeId>(graph_.NumNodes() - 1);
  const std::string pair = " 0 " + std::to_string(far);
  const std::string expect = FormatDistance(reference.Distance(0, far));

  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  stack.engine().SubmitAsync([gate]() { gate.wait(); });

  std::optional<std::string> text;
  stack.Submit("@hl d" + pair, std::nullopt,
               [&text](std::string reply, bool) { text = std::move(reply); });
  ASSERT_TRUE(text.has_value()) << "an hl distance is answered inline";
  EXPECT_EQ(*text, expect);

  std::optional<Reply> decoded;
  stack.SubmitDecoded(ParseRequest("@hl d" + pair, stack.Limits()), 7,
                      [&decoded](Reply reply) { decoded = std::move(reply); });
  ASSERT_TRUE(decoded.has_value()) << "an hl v2 distance is answered inline";
  EXPECT_EQ(FormatReply(*decoded), expect);

  std::vector<std::future<std::string>> queued;
  for (const std::string& line : {"@dijkstra d" + pair, "@hl p" + pair}) {
    auto reply = std::make_shared<std::promise<std::string>>();
    queued.push_back(reply->get_future());
    stack.Submit(line, std::nullopt, [reply](std::string text, bool) {
      reply->set_value(std::move(text));
    });
    EXPECT_EQ(queued.back().wait_for(std::chrono::seconds(0)),
              std::future_status::timeout)
        << line << " must wait for the blocked worker";
  }
  release.set_value();
  EXPECT_EQ(queued[0].get(), expect);
  const std::vector<std::string> path = Tokens(queued[1].get());
  ASSERT_GE(path.size(), 3u);
  EXPECT_EQ(path[0] + " " + path[1] + " " + path[2], "OK p " +
                std::to_string(reference.Distance(0, far)));
  stack.WaitIdle();
}

// Inline requests pass through admission like queued ones: each is
// counted as admitted and released before Submit returns, and a client at
// its per-client cap is shed before anything runs inline.
TEST_F(ServerStackTest, InlineRequestsKeepAdmissionAccountingExact) {
  auto registry = std::make_shared<IndexRegistry>(
      graph_, std::vector<std::string>{"hl", "dijkstra"});
  ServerConfig config = SmallConfig();
  config.cache_capacity = 0;
  config.admission_per_client = 1;
  config.num_threads = 1;
  ServerStack stack(registry, config);

  for (int t = 0; t < 5; ++t) {
    EXPECT_TRUE(StartsWith(stack.HandleLine("@hl d 0 " + std::to_string(t)),
                           "OK d"));
    EXPECT_EQ(stack.admission().InFlight(), 0u);
  }
  EXPECT_EQ(stack.admission().Totals().admitted, 5u);

  // Client 1 holds its one slot with a queued request behind a blocked
  // worker; its inline request is shed, client 2's is answered.
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  stack.engine().SubmitAsync([gate]() { gate.wait(); });
  std::promise<std::string> held;
  std::future<std::string> held_reply = held.get_future();
  stack.Submit("@dijkstra d 0 1", 1, [&held](std::string reply, bool) {
    held.set_value(std::move(reply));
  });
  std::string shed;
  stack.Submit("@hl d 0 2", 1,
               [&shed](std::string reply, bool) { shed = std::move(reply); });
  EXPECT_TRUE(StartsWith(shed, "ERR overload")) << shed;
  EXPECT_EQ(stack.admission().Totals().shed_per_client, 1u);
  std::string served;
  stack.Submit("@hl d 0 2", 2, [&served](std::string reply, bool) {
    served = std::move(reply);
  });
  EXPECT_TRUE(StartsWith(served, "OK d")) << served;
  EXPECT_EQ(stack.admission().ClientInFlight(2), 0u);
  EXPECT_EQ(stack.admission().InFlight(), 1u);

  release.set_value();
  EXPECT_TRUE(StartsWith(held_reply.get(), "OK d"));
  stack.WaitIdle();
  EXPECT_EQ(stack.admission().Totals().admitted, 7u);
  EXPECT_EQ(stack.admission().InFlight(), 0u);
  EXPECT_EQ(stack.admission().ClientInFlight(1), 0u);

  // The inline answers' sub-microsecond-scale latencies show in `stats`
  // as fractional microseconds, not 0.
  const std::string stats = stack.StatsLine();
  const std::size_t at = stats.find("d_p50_us=");
  ASSERT_NE(at, std::string::npos) << stats;
  EXPECT_GT(std::stod(stats.substr(at + 9)), 0.0) << stats;
}

// Many front-end threads sharing one stack: every reply must still be
// exactly the single-threaded Dijkstra answer (TSan-checked in CI).
TEST_F(ServerStackTest, ConcurrentClientsGetConsistentAnswers) {
  ServerStack stack(MakeOracle("ch", graph_), SmallConfig());
  Dijkstra reference(graph_);
  const NodeId n = static_cast<NodeId>(graph_.NumNodes());

  std::vector<std::string> expected;
  for (NodeId t = 0; t < 40; ++t) {
    expected.push_back(FormatDistance(reference.Distance(t % n, (t * 7) % n)));
  }

  constexpr std::size_t kClients = 4;
  std::vector<std::thread> clients;
  std::vector<std::size_t> failures(kClients, 0);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t round = 0; round < 3; ++round) {
        for (NodeId t = 0; t < 40; ++t) {
          const std::string query = "d " + std::to_string(t % n) + " " +
                                    std::to_string((t * 7) % n);
          if (stack.HandleLine(query) != expected[t]) ++failures[c];
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  for (std::size_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], 0u) << "client " << c;
  }
  const CacheStats cache = stack.cache().Totals();
  EXPECT_GT(cache.hits, 0u);
}

// ---------------------------------------------------------------------------
// Multi-backend routing + index lifecycle through the stack
// ---------------------------------------------------------------------------

TEST_F(ServerStackTest, RoutesRequestsToNamedBackendsAndSwitchesDefault) {
  auto registry = std::make_shared<IndexRegistry>(
      graph_, std::vector<std::string>{"dijkstra", "ch"});
  ServerStack stack(registry, SmallConfig());
  Dijkstra reference(graph_);
  const NodeId far = static_cast<NodeId>(graph_.NumNodes() - 1);
  const std::string expect = FormatDistance(reference.Distance(0, far));
  const std::string query = "d 0 " + std::to_string(far);

  EXPECT_EQ(stack.HandleLine(query), expect);                    // default
  EXPECT_EQ(stack.HandleLine("@ch " + query), expect);           // named
  EXPECT_EQ(stack.HandleLine("@dijkstra " + query), expect);
  EXPECT_EQ(stack.HandleLine("use ch"), "OK use ch");
  EXPECT_EQ(registry->DefaultBackend(), "ch");
  EXPECT_EQ(stack.HandleLine(query), expect);

  // Unknown backends: structured errors from selector and `use` alike.
  EXPECT_TRUE(StartsWith(stack.HandleLine("@nosuch " + query),
                         "ERR bad-backend"));
  EXPECT_TRUE(StartsWith(stack.HandleLine("use nosuch"), "ERR bad-backend"));

  // Each backend caches under its own id: the same pair answered via both
  // backends inserts two distance entries.
  const CacheStats cache = stack.cache().Totals();
  EXPECT_GE(cache.insertions, 2u);
}

TEST_F(ServerStackTest, UpdateAndReloadErrorsAreStructured) {
  // Static stack (adopted oracle): lifecycle verbs answer errors, queries
  // still work.
  ServerStack fixed(MakeOracle("dijkstra", graph_), SmallConfig());
  EXPECT_TRUE(StartsWith(fixed.HandleLine("upd 0 1 5"), "ERR bad-request"));
  EXPECT_TRUE(StartsWith(fixed.HandleLine("reload"), "ERR bad-request"));
  EXPECT_TRUE(StartsWith(fixed.HandleLine("d 0 1"), "OK d"));
  // `use` with the wrapped backend's own name is fine.
  EXPECT_EQ(fixed.HandleLine("use dijkstra"), "OK use dijkstra");

  // Dynamic stack: malformed arcs and weights get typed errors.
  auto registry = std::make_shared<IndexRegistry>(
      graph_, std::vector<std::string>{"dijkstra"});
  ServerStack stack(registry, SmallConfig());
  ASSERT_GT(graph_.OutArcs(0).size(), 0u);
  const NodeId via = graph_.OutArcs(0)[0].head;
  EXPECT_TRUE(StartsWith(stack.HandleLine("upd 0 0 5"), "ERR bad-arc"));
  EXPECT_TRUE(StartsWith(stack.HandleLine("upd 0 1000000 5"), "ERR bad-node"));
  EXPECT_TRUE(StartsWith(stack.HandleLine("upd 0 1 0"), "ERR bad-request"));
  EXPECT_EQ(stack.HandleLine("upd 0 " + std::to_string(via) + " 123"),
            "OK upd 1");
  EXPECT_EQ(stack.HandleLine("reload"), "OK reload 1");
  registry->WaitForRebuild();
  EXPECT_EQ(registry->Generation("dijkstra"), 2u);
}

// Bulk binary delta ingest: `updf <file>` round-trip through the stack —
// Save/Load the AHUD container, atomic queueing, reload, and the post-swap
// answers reflecting every record in the file.
TEST_F(ServerStackTest, UpdfQueuesBulkDeltasAndReloadAppliesThem) {
  auto registry = std::make_shared<IndexRegistry>(
      graph_, std::vector<std::string>{"ch"});
  ServerStack stack(registry, SmallConfig());

  // Two distinct arcs, made dramatically heavier.
  ASSERT_GT(graph_.OutArcs(0).size(), 0u);
  ASSERT_GT(graph_.OutArcs(1).size(), 0u);
  const std::vector<WeightDelta> deltas = {
      {0, graph_.OutArcs(0)[0].head,
       static_cast<Weight>(graph_.OutArcs(0)[0].weight * 1000 + 1)},
      {1, graph_.OutArcs(1)[0].head,
       static_cast<Weight>(graph_.OutArcs(1)[0].weight * 1000 + 1)},
  };
  Graph updated = graph_;
  ASSERT_EQ(ApplyWeightDeltas(&updated, deltas).applied, 2u);

  const std::string path = ::testing::TempDir() + "ah_updf_roundtrip.bin";
  {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.is_open());
    SaveWeightDeltas(out, deltas);
  }
  EXPECT_EQ(stack.HandleLine("updf " + path), "OK updf 2 2");
  EXPECT_EQ(stack.HandleLine("reload"), "OK reload 2");
  registry->WaitForRebuild();

  Dijkstra after(updated);
  const NodeId far = static_cast<NodeId>(graph_.NumNodes() - 1);
  for (NodeId s = 0; s < 2; ++s) {
    EXPECT_EQ(stack.HandleLine("d " + std::to_string(s) + " " +
                               std::to_string(far)),
              FormatDistance(after.Distance(s, far)));
  }
  std::remove(path.c_str());
}

TEST_F(ServerStackTest, UpdfErrorsAreStructuredAndQueueNothing) {
  auto registry = std::make_shared<IndexRegistry>(
      graph_, std::vector<std::string>{"dijkstra"});
  ServerConfig config = SmallConfig();
  config.max_bulk_deltas = 2;
  ServerStack stack(registry, config);
  const std::string dir = ::testing::TempDir();

  // Missing file.
  EXPECT_TRUE(StartsWith(stack.HandleLine("updf " + dir + "ah_updf_nope.bin"),
                         "ERR bad-request"));

  // Corrupt container (wrong magic).
  const std::string corrupt = dir + "ah_updf_corrupt.bin";
  {
    std::ofstream out(corrupt, std::ios::binary);
    out << "not a delta file";
  }
  EXPECT_TRUE(
      StartsWith(stack.HandleLine("updf " + corrupt), "ERR bad-request"));

  // A batch whose second record names a non-arc: typed bad-arc error that
  // identifies the record, and nothing from the batch is queued.
  const std::string badarc = dir + "ah_updf_badarc.bin";
  {
    const std::vector<WeightDelta> deltas = {
        {0, graph_.OutArcs(0)[0].head, 9}, {0, 0, 9}};
    std::ofstream out(badarc, std::ios::binary);
    SaveWeightDeltas(out, deltas);
  }
  const std::string reply = stack.HandleLine("updf " + badarc);
  EXPECT_TRUE(StartsWith(reply, "ERR bad-arc")) << reply;
  EXPECT_NE(reply.find("record 1"), std::string::npos) << reply;
  EXPECT_EQ(registry->PendingUpdates(), 0u);

  // Over the server's record cap: too-large, nothing queued.
  const std::string big = dir + "ah_updf_big.bin";
  {
    const NodeId head = graph_.OutArcs(0)[0].head;
    const std::vector<WeightDelta> deltas = {
        {0, head, 9}, {0, head, 10}, {0, head, 11}};
    std::ofstream out(big, std::ios::binary);
    SaveWeightDeltas(out, deltas);
  }
  EXPECT_TRUE(StartsWith(stack.HandleLine("updf " + big), "ERR too-large"));
  EXPECT_EQ(registry->PendingUpdates(), 0u);

  // Static stacks reject the verb like upd/reload.
  ServerStack fixed(MakeOracle("dijkstra", graph_), SmallConfig());
  EXPECT_TRUE(
      StartsWith(fixed.HandleLine("updf " + badarc), "ERR bad-request"));

  for (const std::string& f : {corrupt, badarc, big}) std::remove(f.c_str());
}

// The acceptance scenario, in-process: continuous traffic on two backends
// while a weight delta triggers a background rebuild and epoch swap — every
// reply exact on the pre- or post-update graph, stale cache entries retired
// by generation (no Clear()), updated answers after the swap.
TEST_F(ServerStackTest, HotSwapKeepsServingExactAnswers) {
  auto registry = std::make_shared<IndexRegistry>(
      graph_, std::vector<std::string>{"dijkstra", "ch"});
  ServerConfig config = SmallConfig();
  ServerStack stack(registry, config);

  ASSERT_GT(graph_.OutArcs(0).size(), 0u);
  const NodeId via = graph_.OutArcs(0)[0].head;
  const Weight new_weight =
      static_cast<Weight>(graph_.OutArcs(0)[0].weight * 1000 + 1);
  Graph updated = graph_;
  updated.SetArcWeight(0, via, new_weight);
  Dijkstra before(graph_);
  Dijkstra after(updated);

  const NodeId n = static_cast<NodeId>(graph_.NumNodes());
  std::vector<std::string> queries;
  std::vector<std::string> old_replies;
  std::vector<std::string> new_replies;
  for (NodeId i = 0; i < 16; ++i) {
    const NodeId s = (i * 3) % n;
    const NodeId t = (i * 11 + 1) % n;
    queries.push_back("d " + std::to_string(s) + " " + std::to_string(t));
    old_replies.push_back(FormatDistance(before.Distance(s, t)));
    new_replies.push_back(FormatDistance(after.Distance(s, t)));
  }

  // Warm the cache with pre-swap answers (so the swap has stale entries to
  // retire), then keep clients hammering across the swap.
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(stack.HandleLine(queries[i]), old_replies[i]);
    ASSERT_EQ(stack.HandleLine("@ch " + queries[i]), old_replies[i]);
  }

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> bad{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      const std::string prefix = c % 2 == 0 ? "" : "@ch ";
      std::size_t i = c;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::size_t j = i++ % queries.size();
        const std::string reply = stack.HandleLine(prefix + queries[j]);
        if (reply != old_replies[j] && reply != new_replies[j]) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  ASSERT_EQ(stack.HandleLine("upd 0 " + std::to_string(via) + " " +
                             std::to_string(new_weight)),
            "OK upd 1");
  ASSERT_EQ(stack.HandleLine("reload"), "OK reload 1");
  registry->WaitForRebuild();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(bad.load(), 0u);

  // Post-swap: both backends answer the updated graph; the stale entries
  // were retired by generation tag, never via Clear().
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(stack.HandleLine(queries[i]), new_replies[i]) << queries[i];
    EXPECT_EQ(stack.HandleLine("@ch " + queries[i]), new_replies[i])
        << queries[i];
  }
  const CacheStats cache = stack.cache().Totals();
  EXPECT_EQ(cache.clears, 0u);
  EXPECT_GT(cache.invalidations, 0u);
  const IndexRegistry::RegistryStats registry_stats = registry->GetStats();
  EXPECT_EQ(registry_stats.updates_applied, 1u);
  EXPECT_EQ(registry_stats.reloads, 1u);
}

// ---------------------------------------------------------------------------
// TCP end-to-end
// ---------------------------------------------------------------------------

class TcpServerTest : public ::testing::Test {
 protected:
  TcpServerTest() : graph_(testing::MakeRoadGraph(7, 11)) {}

  Graph graph_;
};

TEST_F(TcpServerTest, EndToEndQueriesOverLocalhost) {
  ServerConfig config;
  config.num_threads = 2;
  ServerStack stack(MakeOracle("ch", graph_), config);
  stack.SetPois({0, 3, 6, 9});
  Dijkstra reference(graph_);

  TcpServer tcp(stack, TcpServerConfig{});
  std::string error;
  ASSERT_TRUE(tcp.Start(&error)) << error;
  ASSERT_NE(tcp.Port(), 0);

  LineClient client;
  ASSERT_TRUE(client.Connect(tcp.Port()));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, stack.Greeting());

  const NodeId far = static_cast<NodeId>(graph_.NumNodes() - 1);
  ASSERT_TRUE(client.Send("d 0 " + std::to_string(far) + "\n"));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, FormatDistance(reference.Distance(0, far)));

  // Pipelined requests come back in request order.
  ASSERT_TRUE(client.Send("d 0 1\nd 2 3\nbogus\nd 4 5\n"));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, FormatDistance(reference.Distance(0, 1)));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, FormatDistance(reference.Distance(2, 3)));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_TRUE(StartsWith(line, "ERR bad-request"));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, FormatDistance(reference.Distance(4, 5)));

  // CRLF line endings are accepted.
  ASSERT_TRUE(client.Send("d 1 2\r\n"));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, FormatDistance(reference.Distance(1, 2)));

  // Quit: one farewell line, then the server closes the connection.
  ASSERT_TRUE(client.Send("q\n"));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, "OK bye");
  EXPECT_TRUE(client.AtEof());

  tcp.Stop();
  EXPECT_FALSE(tcp.Running());
}

TEST_F(TcpServerTest, ConcurrentConnectionsAndConnectionLimit) {
  ServerConfig config;
  config.num_threads = 2;
  ServerStack stack(MakeOracle("dijkstra", graph_), config);
  Dijkstra reference(graph_);

  TcpServerConfig tcp_config;
  tcp_config.max_connections = 2;
  TcpServer tcp(stack, tcp_config);
  ASSERT_TRUE(tcp.Start());

  LineClient a;
  LineClient b;
  ASSERT_TRUE(a.Connect(tcp.Port()));
  ASSERT_TRUE(b.Connect(tcp.Port()));
  std::string line;
  ASSERT_TRUE(a.ReadLine(&line));
  ASSERT_TRUE(b.ReadLine(&line));

  // Both serve queries concurrently.
  ASSERT_TRUE(a.Send("d 0 5\n"));
  ASSERT_TRUE(b.Send("d 5 0\n"));
  ASSERT_TRUE(a.ReadLine(&line));
  EXPECT_EQ(line, FormatDistance(reference.Distance(0, 5)));
  ASSERT_TRUE(b.ReadLine(&line));
  EXPECT_EQ(line, FormatDistance(reference.Distance(5, 0)));

  // A third connection is shed at the front door.
  LineClient c;
  ASSERT_TRUE(c.Connect(tcp.Port()));
  ASSERT_TRUE(c.ReadLine(&line));
  EXPECT_TRUE(StartsWith(line, "ERR overload")) << line;
  EXPECT_TRUE(c.AtEof());
  EXPECT_EQ(tcp.RejectedConnections(), 1u);

  // Abrupt client disconnect (no quit) must not wedge the server.
  ASSERT_TRUE(b.Send("d 1 2\n"));
  ASSERT_TRUE(b.ReadLine(&line));
  tcp.Stop();
}

// Hot swap under live concurrent TCP load: multiple socket clients stream
// distance queries on two backends while the admin connection queues a
// weight delta and reloads. Every reply must match the Dijkstra reference
// on the pre- or post-update graph; after the swap, the post-update one
// (TSan-checked in CI).
TEST_F(TcpServerTest, HotSwapUnderLiveTcpLoad) {
  auto registry = std::make_shared<IndexRegistry>(
      graph_, std::vector<std::string>{"dijkstra", "ch"});
  ServerConfig config;
  config.num_threads = 2;
  config.request_timeout = std::chrono::milliseconds(0);
  ServerStack stack(registry, config);

  ASSERT_GT(graph_.OutArcs(0).size(), 0u);
  const NodeId via = graph_.OutArcs(0)[0].head;
  const Weight new_weight =
      static_cast<Weight>(graph_.OutArcs(0)[0].weight * 1000 + 1);
  Graph updated = graph_;
  updated.SetArcWeight(0, via, new_weight);
  Dijkstra before(graph_);
  Dijkstra after(updated);

  const NodeId n = static_cast<NodeId>(graph_.NumNodes());
  std::vector<std::string> queries;
  std::vector<std::string> old_replies;
  std::vector<std::string> new_replies;
  for (NodeId i = 0; i < 12; ++i) {
    const NodeId s = (i * 5) % n;
    const NodeId t = (i * 13 + 2) % n;
    queries.push_back("d " + std::to_string(s) + " " + std::to_string(t));
    old_replies.push_back(FormatDistance(before.Distance(s, t)));
    new_replies.push_back(FormatDistance(after.Distance(s, t)));
  }

  TcpServer tcp(stack, TcpServerConfig{});
  ASSERT_TRUE(tcp.Start());

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> bad{0};
  std::atomic<std::size_t> io_failures{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      LineClient client;
      std::string line;
      if (!client.Connect(tcp.Port()) || !client.ReadLine(&line)) {
        io_failures.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      const std::string prefix = c % 2 == 0 ? "" : "@ch ";
      std::size_t i = c;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::size_t j = i++ % queries.size();
        if (!client.SendLine(prefix + queries[j]) || !client.ReadLine(&line)) {
          io_failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        if (line != old_replies[j] && line != new_replies[j]) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
      }
      client.SendLine("q");
    });
  }

  // Admin connection: queue the delta and reload while traffic flows.
  {
    LineClient admin;
    std::string line;
    ASSERT_TRUE(admin.Connect(tcp.Port()));
    ASSERT_TRUE(admin.ReadLine(&line));
    ASSERT_TRUE(admin.SendLine("upd 0 " + std::to_string(via) + " " +
                               std::to_string(new_weight)));
    ASSERT_TRUE(admin.ReadLine(&line));
    EXPECT_EQ(line, "OK upd 1");
    ASSERT_TRUE(admin.SendLine("reload"));
    ASSERT_TRUE(admin.ReadLine(&line));
    EXPECT_EQ(line, "OK reload 1");
    registry->WaitForRebuild();

    // Post-swap, on a fresh connection stream: updated answers only.
    for (std::size_t j = 0; j < queries.size(); ++j) {
      ASSERT_TRUE(admin.SendLine(queries[j]));
      ASSERT_TRUE(admin.ReadLine(&line));
      EXPECT_EQ(line, new_replies[j]) << queries[j];
      ASSERT_TRUE(admin.SendLine("@ch " + queries[j]));
      ASSERT_TRUE(admin.ReadLine(&line));
      EXPECT_EQ(line, new_replies[j]) << "@ch " << queries[j];
    }
    admin.SendLine("q");
  }

  stop.store(true, std::memory_order_relaxed);
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(io_failures.load(), 0u);
  EXPECT_EQ(stack.cache().Totals().clears, 0u);  // swap never Clear()s

  tcp.Stop();
}

// Stop() with requests still in flight: every admitted request finishes and
// teardown does not race the engine workers (TSan-checked in CI).
TEST_F(TcpServerTest, StopWhileBusyIsClean) {
  ServerConfig config;
  config.num_threads = 2;
  ServerStack stack(MakeOracle("dijkstra", graph_), config);
  TcpServer tcp(stack, TcpServerConfig{});
  ASSERT_TRUE(tcp.Start());

  LineClient client;
  ASSERT_TRUE(client.Connect(tcp.Port()));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  std::string burst;
  for (int i = 0; i < 50; ++i) {
    burst += "d " + std::to_string(i % 20) + " " + std::to_string(i % 13) +
             "\n";
  }
  ASSERT_TRUE(client.Send(burst));
  tcp.Stop();  // replies may or may not have been flushed; must not hang
  EXPECT_FALSE(tcp.Running());
}

// ---------------------------------------------------------------------------
// Binary protocol (v2) codec
// ---------------------------------------------------------------------------

TEST(BinaryProtocolTest, StatusBytesRoundTripEveryErrorCode) {
  for (const ErrorCode code :
       {ErrorCode::kBadRequest, ErrorCode::kBadNode, ErrorCode::kBadBackend,
        ErrorCode::kBadArc, ErrorCode::kUnsupportedVersion,
        ErrorCode::kOverload, ErrorCode::kTimeout, ErrorCode::kTooLarge,
        ErrorCode::kInternal}) {
    const std::uint8_t status = StatusFromError(code);
    EXPECT_NE(status, kStatusOk);
    ErrorCode back = ErrorCode::kInternal;
    ASSERT_TRUE(ErrorFromStatus(status, &back));
    EXPECT_EQ(back, code);
  }
  ErrorCode ignored;
  EXPECT_FALSE(ErrorFromStatus(kStatusOk, &ignored));
  EXPECT_FALSE(ErrorFromStatus(255, &ignored));
}

// Every text request must decode to the identical Request through the v2
// codec: text -> Request -> body -> frame -> DecodeRequest -> same Request.
TEST(BinaryProtocolTest, RequestsRoundTripAndMatchTheTextParser) {
  const char* lines[] = {"d 3 99", "p 0 1",           "k 5 3",
                         "b 2 0 1 2 3", "m 2 3 7 8 0 1 2", "stats",
                         "inv",     "reload",          "q",
                         "upd 1 2 77",  "updf /tmp/deltas.bin"};
  for (const char* line : lines) {
    const ParseResult text = ParseRequest(line, kLimits);
    ASSERT_TRUE(text.ok) << line;
    const std::string frame = EncodeRequestFrame(
        OpcodeForKind(text.request.kind), 42, text.request.backend,
        EncodeRequestBody(text.request));
    FrameHeader header;
    std::string_view payload;
    ASSERT_EQ(TryReadFrame(frame, &header, &payload), frame.size()) << line;
    EXPECT_EQ(header.request_id, 42u);
    const ParseResult bin = DecodeRequest(header, payload, kLimits);
    ASSERT_TRUE(bin.ok) << line << ": " << bin.message;
    EXPECT_EQ(bin.request.kind, text.request.kind) << line;
    EXPECT_EQ(bin.request.s, text.request.s) << line;
    EXPECT_EQ(bin.request.t, text.request.t) << line;
    EXPECT_EQ(bin.request.k, text.request.k) << line;
    EXPECT_EQ(bin.request.weight, text.request.weight) << line;
    EXPECT_EQ(bin.request.backend, text.request.backend) << line;
    EXPECT_EQ(bin.request.path, text.request.path) << line;
    EXPECT_EQ(bin.request.pairs, text.request.pairs) << line;
    EXPECT_EQ(bin.request.sources, text.request.sources) << line;
    EXPECT_EQ(bin.request.targets, text.request.targets) << line;
  }

  // The backend selector travels as the payload prefix.
  const ParseResult text = ParseRequest("@ch d 3 4", kLimits);
  ASSERT_TRUE(text.ok);
  const std::string frame = EncodeRequestFrame(
      Opcode::kDistance, 7, text.request.backend,
      EncodeRequestBody(text.request));
  FrameHeader header;
  std::string_view payload;
  ASSERT_EQ(TryReadFrame(frame, &header, &payload), frame.size());
  EXPECT_EQ(header.backend_len, 2u);
  const ParseResult bin = DecodeRequest(header, payload, kLimits);
  ASSERT_TRUE(bin.ok);
  EXPECT_EQ(bin.request.backend, "ch");
}

// Validation parity: the binary decoder enforces the same limits and rules
// as the text parser and reports the same error codes.
TEST(BinaryProtocolTest, DecodeRequestValidatesLikeTheTextParser) {
  const auto decode = [](const std::string& frame) {
    FrameHeader header;
    std::string_view payload;
    const std::size_t total = TryReadFrame(frame, &header, &payload);
    EXPECT_EQ(total, frame.size());
    return DecodeRequest(header, payload, kLimits);
  };
  const auto body32 = [](std::initializer_list<std::uint32_t> values) {
    std::string body;
    for (const std::uint32_t v : values) PutU32(&body, v);
    return body;
  };

  // Node out of range (kLimits.num_nodes == 100), same code as the parser.
  ParseResult r =
      decode(EncodeRequestFrame(Opcode::kDistance, 1, {}, body32({3, 100})));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, ErrorCode::kBadNode);
  EXPECT_EQ(r.message, ParseRequest("d 3 100", kLimits).message);

  // Batch over the cap (kLimits.max_batch == 8).
  std::string big = body32({9});
  for (int i = 0; i < 18; ++i) PutU32(&big, 0);
  r = decode(EncodeRequestFrame(Opcode::kBatch, 2, {}, big));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, ErrorCode::kBadRequest);

  // Truncated and oversized bodies are malformed, not silently padded.
  r = decode(EncodeRequestFrame(Opcode::kDistance, 3, {}, body32({3})));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, ErrorCode::kBadRequest);
  r = decode(EncodeRequestFrame(Opcode::kDistance, 4, {}, body32({1, 2, 3})));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, ErrorCode::kBadRequest);

  // A backend prefix on a backend-independent opcode is rejected — the
  // same contradiction "@ch stats" raises in v1.
  r = decode(EncodeRequestFrame(Opcode::kStats, 5, "ch", {}));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, ErrorCode::kBadRequest);

  // kUse carries its argument as the prefix; an empty one is an error.
  r = decode(EncodeRequestFrame(Opcode::kUse, 6, {}, {}));
  EXPECT_FALSE(r.ok);
  r = decode(EncodeRequestFrame(Opcode::kUse, 7, "hl", {}));
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.request.kind, RequestKind::kUse);
  EXPECT_EQ(r.request.backend, "hl");

  // Unknown opcode.
  r = decode(EncodeRequestFrame(static_cast<Opcode>(0x6f), 8, {}, {}));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, ErrorCode::kBadRequest);
  EXPECT_NE(r.message.find("0x6f"), std::string::npos);
}

// The equivalence oracle: a Reply rendered through the v2 frame and back to
// text must be byte-identical to the v1 line FormatReply produces.
TEST(BinaryProtocolTest, ReplyFramesRenderToIdenticalTextLines) {
  std::vector<Reply> replies;
  {
    Reply r;
    r.kind = RequestKind::kDistance;
    r.dist = 12345;
    replies.push_back(r);
    r.dist = kInfDist;  // unreachable sentinel
    replies.push_back(r);
  }
  {
    Reply r;
    r.kind = RequestKind::kPath;
    r.path.length = 9;
    r.path.nodes = {0, 4, 7};
    replies.push_back(r);
  }
  {
    Reply r;
    r.kind = RequestKind::kKNearest;
    r.nearest = {{5, 2}, {9, 0}};
    replies.push_back(r);
  }
  {
    Reply r;
    r.kind = RequestKind::kBatch;
    r.dists = {1, kInfDist, 3};
    replies.push_back(r);
  }
  {
    Reply r;
    r.kind = RequestKind::kMatrix;
    r.num_sources = 2;
    r.num_targets = 2;
    r.dists = {0, 1, 2, 3};
    replies.push_back(r);
  }
  {
    Reply r;
    r.kind = RequestKind::kStats;
    r.text = "v=1 served=3";
    replies.push_back(r);
    r.kind = RequestKind::kUse;
    r.text = "ch";
    replies.push_back(r);
  }
  {
    Reply r;
    r.kind = RequestKind::kUpdate;
    r.value = 4;
    replies.push_back(r);
    r.kind = RequestKind::kReload;
    replies.push_back(r);
    r.kind = RequestKind::kUpdateFile;
    r.value2 = 6;
    replies.push_back(r);
    r.kind = RequestKind::kInvalidate;
    replies.push_back(r);
    r.kind = RequestKind::kQuit;
    replies.push_back(r);
  }
  {
    Reply r;
    r.ok = false;
    r.code = ErrorCode::kBadNode;
    r.detail = "node id 7 out of range [0, 5)";
    replies.push_back(r);
  }
  for (const Reply& reply : replies) {
    const Opcode opcode =
        OpcodeForKind(reply.ok ? reply.kind : RequestKind::kDistance);
    const std::string frame = EncodeReplyFrame(reply, opcode, 11);
    FrameHeader header;
    std::string_view payload;
    ASSERT_EQ(TryReadFrame(frame, &header, &payload), frame.size());
    EXPECT_EQ(header.request_id, 11u);
    EXPECT_EQ(ReplyFrameToText(header, payload), FormatReply(reply));
  }
}

// ---------------------------------------------------------------------------
// TCP end-to-end, v2 binary protocol
// ---------------------------------------------------------------------------

TEST_F(TcpServerTest, V2NegotiationAndQueriesMatchV1ByteForByte) {
  ServerConfig config;
  config.num_threads = 2;
  ServerStack stack(MakeOracle("ch", graph_), config);
  stack.SetPois({0, 3, 6, 9});

  TcpServer tcp(stack, TcpServerConfig{});
  ASSERT_TRUE(tcp.Start());

  LineClient v1;
  ASSERT_TRUE(v1.Connect(tcp.Port()));
  std::string banner;
  ASSERT_TRUE(v1.ReadLine(&banner));

  BinaryClient v2;
  ASSERT_TRUE(v2.Connect(tcp.Port()));
  EXPECT_EQ(v2.nodes(), stack.NumNodes());
  EXPECT_EQ(v2.arcs(), stack.NumArcs());

  const NodeId far = static_cast<NodeId>(graph_.NumNodes() - 1);
  const std::string queries[] = {
      "d 0 " + std::to_string(far),
      "p 0 " + std::to_string(far),
      "k 2 3",
      "b 3 0 5 5 0 0 0",
      "m 2 2 0 1 2 3",
  };
  for (const std::string& query : queries) {
    std::string v1_line;
    ASSERT_TRUE(v1.SendLine(query));
    ASSERT_TRUE(v1.ReadLine(&v1_line));

    const ParseResult parsed = ParseRequest(query, stack.Limits());
    ASSERT_TRUE(parsed.ok) << query;
    const std::uint64_t id =
        v2.SendRequest(OpcodeForKind(parsed.request.kind),
                       EncodeRequestBody(parsed.request));
    ASSERT_NE(id, 0u);
    BinaryClient::Frame frame;
    ASSERT_TRUE(v2.ReadReplyFor(id, &frame));
    EXPECT_EQ(frame.header.status, kStatusOk) << query;
    EXPECT_EQ(ReplyFrameToText(frame.header, frame.payload), v1_line)
        << query;
  }

  // The stats reply sees both protocols' request counters.
  const std::uint64_t id = v2.SendRequest(Opcode::kStats, {});
  BinaryClient::Frame frame;
  ASSERT_TRUE(v2.ReadReplyFor(id, &frame));
  EXPECT_NE(frame.payload.find("v1_requests="), std::string::npos);
  EXPECT_NE(frame.payload.find("v2_requests="), std::string::npos);
  EXPECT_NE(frame.payload.find("bytes_in="), std::string::npos);

  // Quit: one empty OK frame, then the server closes.
  const std::uint64_t quit_id = v2.SendRequest(Opcode::kQuit, {});
  ASSERT_TRUE(v2.ReadReplyFor(quit_id, &frame));
  EXPECT_EQ(frame.header.status, kStatusOk);
  EXPECT_TRUE(frame.payload.empty());
  EXPECT_TRUE(v2.AtEof());

  v1.SendLine("q");
  tcp.Stop();
}

// A frame delivered one fragment at a time — across many read() boundaries
// — must decode exactly once, when complete.
TEST_F(TcpServerTest, V2PartialFramesAcrossReadBoundaries) {
  ServerConfig config;
  config.num_threads = 2;
  ServerStack stack(MakeOracle("dijkstra", graph_), config);
  Dijkstra reference(graph_);
  TcpServer tcp(stack, TcpServerConfig{});
  ASSERT_TRUE(tcp.Start());

  BinaryClient client;
  ASSERT_TRUE(client.Connect(tcp.Port()));

  std::string body;
  PutU32(&body, 0);
  PutU32(&body, 6);
  const std::string frame = EncodeRequestFrame(Opcode::kDistance, 9, {}, body);
  for (std::size_t i = 0; i < frame.size(); i += 3) {
    ASSERT_TRUE(client.SendRaw(frame.substr(i, 3)));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  BinaryClient::Frame reply;
  ASSERT_TRUE(client.ReadReplyFor(9, &reply));
  EXPECT_EQ(ReplyFrameToText(reply.header, reply.payload),
            FormatDistance(reference.Distance(0, 6)));

  // Two frames in one send, the second truncated: the first answers, the
  // rest waits for its missing bytes.
  std::string two = EncodeRequestFrame(Opcode::kDistance, 10, {}, body);
  const std::string second =
      EncodeRequestFrame(Opcode::kDistance, 11, {}, body);
  two += second.substr(0, 7);
  ASSERT_TRUE(client.SendRaw(two));
  ASSERT_TRUE(client.ReadReplyFor(10, &reply));
  ASSERT_TRUE(client.SendRaw(second.substr(7)));
  ASSERT_TRUE(client.ReadReplyFor(11, &reply));
  EXPECT_EQ(ReplyFrameToText(reply.header, reply.payload),
            FormatDistance(reference.Distance(0, 6)));
  tcp.Stop();
}

TEST_F(TcpServerTest, V2OversizedAndMalformedFramesAreRejected) {
  ServerConfig config;
  config.num_threads = 2;
  ServerStack stack(MakeOracle("dijkstra", graph_), config);
  TcpServerConfig tcp_config;
  tcp_config.max_frame_bytes = 64;
  TcpServer tcp(stack, tcp_config);
  ASSERT_TRUE(tcp.Start());

  // An announced length beyond max_frame_bytes is refused from the header
  // alone — no payload is ever buffered — with the id echoed back.
  {
    BinaryClient client;
    ASSERT_TRUE(client.Connect(tcp.Port()));
    std::string header;
    PutU32(&header, 1000);                               // len
    header.push_back(static_cast<char>(Opcode::kBatch));  // opcode
    header.push_back(0);                                  // status
    header.push_back(0);                                  // backend_len
    header.push_back(0);                                  // reserved
    PutU64(&header, 77);                                  // request id
    ASSERT_TRUE(client.SendRaw(header));
    BinaryClient::Frame reply;
    ASSERT_TRUE(client.ReadFrame(&reply));
    EXPECT_EQ(reply.header.opcode, Opcode::kBatch);
    EXPECT_EQ(reply.header.request_id, 77u);
    ErrorCode code = ErrorCode::kInternal;
    ASSERT_TRUE(ErrorFromStatus(reply.header.status, &code));
    EXPECT_EQ(code, ErrorCode::kTooLarge);
    EXPECT_TRUE(client.AtEof());
  }

  // A length below the 12-byte header remainder can never frame; the
  // connection is errored and closed.
  {
    BinaryClient client;
    ASSERT_TRUE(client.Connect(tcp.Port()));
    std::string bogus;
    PutU32(&bogus, 5);
    bogus.append(12, '\0');
    ASSERT_TRUE(client.SendRaw(bogus));
    BinaryClient::Frame reply;
    ASSERT_TRUE(client.ReadFrame(&reply));
    ErrorCode code = ErrorCode::kInternal;
    ASSERT_TRUE(ErrorFromStatus(reply.header.status, &code));
    EXPECT_EQ(code, ErrorCode::kBadRequest);
    EXPECT_TRUE(client.AtEof());
  }

  // A decode failure inside a well-framed request (unknown opcode) answers
  // an error frame but keeps the connection open — framing stayed intact.
  {
    BinaryClient client;
    ASSERT_TRUE(client.Connect(tcp.Port()));
    ASSERT_TRUE(client.SendRequestWithId(static_cast<Opcode>(0x6f), 5, {}));
    BinaryClient::Frame reply;
    ASSERT_TRUE(client.ReadReplyFor(5, &reply));
    ErrorCode code = ErrorCode::kInternal;
    ASSERT_TRUE(ErrorFromStatus(reply.header.status, &code));
    EXPECT_EQ(code, ErrorCode::kBadRequest);
    std::string body;
    PutU32(&body, 0);
    PutU32(&body, 1);
    const std::uint64_t id = client.SendRequest(Opcode::kDistance, body);
    ASSERT_TRUE(client.ReadReplyFor(id, &reply));
    EXPECT_EQ(reply.header.status, kStatusOk);
  }
  tcp.Stop();
}

// First bytes that are neither the magic nor sensible text fall back to the
// v1 path and get a structured v1 error — never a hung connection.
TEST_F(TcpServerTest, GarbageHelloFallsBackToTextError) {
  ServerConfig config;
  config.num_threads = 2;
  ServerStack stack(MakeOracle("dijkstra", graph_), config);
  TcpServer tcp(stack, TcpServerConfig{});
  ASSERT_TRUE(tcp.Start());

  LineClient client;
  ASSERT_TRUE(client.Connect(tcp.Port()));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  ASSERT_TRUE(client.Send("AHBX garbage hello\n"));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_TRUE(StartsWith(line, "ERR bad-request")) << line;

  // The connection stays usable as a v1 session afterwards.
  Dijkstra reference(graph_);
  ASSERT_TRUE(client.Send("d 0 3\n"));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, FormatDistance(reference.Distance(0, 3)));
  tcp.Stop();
}

// v2 pipelining: many frames in flight at once; replies may complete in any
// order and are matched purely by request id.
TEST_F(TcpServerTest, V2PipelinedRepliesMatchByRequestId) {
  ServerConfig config;
  config.num_threads = 2;
  ServerStack stack(MakeOracle("dijkstra", graph_), config);
  Dijkstra reference(graph_);
  TcpServer tcp(stack, TcpServerConfig{});
  ASSERT_TRUE(tcp.Start());

  BinaryClient client;
  ASSERT_TRUE(client.Connect(tcp.Port()));

  constexpr std::uint64_t kInFlight = 32;
  const NodeId n = static_cast<NodeId>(graph_.NumNodes());
  std::string burst;
  for (std::uint64_t i = 0; i < kInFlight; ++i) {
    std::string body;
    PutU32(&body, static_cast<std::uint32_t>(i % n));
    PutU32(&body, static_cast<std::uint32_t>((i * 7) % n));
    burst += EncodeRequestFrame(Opcode::kDistance, 1000 + i, {}, body);
  }
  ASSERT_TRUE(client.SendRaw(burst));

  // Collect in reverse submission order — the stash absorbs whatever
  // completion order the engine produced.
  for (std::uint64_t i = kInFlight; i-- > 0;) {
    BinaryClient::Frame reply;
    ASSERT_TRUE(client.ReadReplyFor(1000 + i, &reply));
    EXPECT_EQ(reply.header.opcode, Opcode::kDistance);
    EXPECT_EQ(ReplyFrameToText(reply.header, reply.payload),
              FormatDistance(reference.Distance(
                  static_cast<NodeId>(i % n),
                  static_cast<NodeId>((i * 7) % n))));
  }
  tcp.Stop();
}

// v1 pipelining across the two delivery paths: `hl` distances are answered
// on the I/O thread, paths on the engine workers. Replies still come back
// one per line, in order, and `quit` still ends the session.
TEST_F(TcpServerTest, V1PipelinedInlineAndQueuedRepliesKeepOrder) {
  ServerConfig config;
  config.num_threads = 2;
  config.cache_capacity = 0;  // every distance runs inline
  ServerStack stack(MakeOracle("hl", graph_), config);
  Dijkstra reference(graph_);
  TcpServer tcp(stack, TcpServerConfig{});
  ASSERT_TRUE(tcp.Start());

  LineClient client;
  ASSERT_TRUE(client.Connect(tcp.Port()));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));

  const NodeId n = static_cast<NodeId>(graph_.NumNodes());
  std::string burst;
  std::vector<std::string> expected;  // "OK d ..." or "OK p <length>"
  for (NodeId i = 0; i < 24; ++i) {
    const NodeId s = i % n;
    const NodeId t = (i * 7 + 3) % n;
    const bool path = i % 3 == 2;
    burst += (path ? "p " : "d ") + std::to_string(s) + " " +
             std::to_string(t) + "\n";
    expected.push_back(path ? "OK p " + std::to_string(reference.Distance(s, t))
                            : FormatDistance(reference.Distance(s, t)));
  }
  burst += "q\nd 0 1\n";  // nothing after quit is answered
  ASSERT_TRUE(client.Send(burst));

  for (const std::string& want : expected) {
    ASSERT_TRUE(client.ReadLine(&line));
    if (StartsWith(want, "OK p ")) {
      const std::vector<std::string> tokens = Tokens(line);
      ASSERT_GE(tokens.size(), 3u) << line;
      EXPECT_EQ(tokens[0] + " " + tokens[1] + " " + tokens[2], want);
    } else {
      EXPECT_EQ(line, want);
    }
  }
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, "OK bye");
  EXPECT_TRUE(client.AtEof());
  tcp.Stop();
}

// v2 pipelining with every request answered on the I/O thread: each of 64
// `hl` frames gets exactly one reply, exact against Dijkstra.
TEST_F(TcpServerTest, V2PipelinedInlineFramesAreAnsweredOnce) {
  ServerConfig config;
  config.num_threads = 2;
  config.cache_capacity = 0;  // every distance runs inline
  ServerStack stack(MakeOracle("hl", graph_), config);
  Dijkstra reference(graph_);
  TcpServer tcp(stack, TcpServerConfig{});
  ASSERT_TRUE(tcp.Start());

  BinaryClient client;
  ASSERT_TRUE(client.Connect(tcp.Port()));
  constexpr std::uint64_t kFrames = 64;
  constexpr std::uint64_t kFirstId = 500;
  const NodeId n = static_cast<NodeId>(graph_.NumNodes());
  auto pair_of = [n](std::uint64_t i) {
    return std::make_pair(static_cast<NodeId>(i % n),
                          static_cast<NodeId>((i * 13 + 5) % n));
  };
  std::string burst;
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    std::string body;
    PutU32(&body, pair_of(i).first);
    PutU32(&body, pair_of(i).second);
    burst += EncodeRequestFrame(Opcode::kDistance, kFirstId + i, {}, body);
  }
  ASSERT_TRUE(client.SendRaw(burst));

  std::vector<int> answers(kFrames, 0);
  for (std::uint64_t k = 0; k < kFrames; ++k) {
    BinaryClient::Frame frame;
    ASSERT_TRUE(client.ReadFrame(&frame));
    const std::uint64_t id = frame.header.request_id;
    ASSERT_GE(id, kFirstId);
    ASSERT_LT(id, kFirstId + kFrames);
    ++answers[id - kFirstId];
    const auto [s, t] = pair_of(id - kFirstId);
    EXPECT_EQ(ReplyFrameToText(frame.header, frame.payload),
              FormatDistance(reference.Distance(s, t)));
  }
  EXPECT_EQ(answers, std::vector<int>(kFrames, 1));
  // Nothing else is pending: the next frame is the reply to the next send.
  const std::uint64_t quit_id = client.SendRequest(Opcode::kQuit, {});
  BinaryClient::Frame frame;
  ASSERT_TRUE(client.ReadFrame(&frame));
  EXPECT_EQ(frame.header.request_id, quit_id);
  EXPECT_TRUE(client.AtEof());
  tcp.Stop();
}

// v1 and v2 clients on the same port, interleaved, answering identically.
TEST_F(TcpServerTest, MixedProtocolClientsShareOneServer) {
  ServerConfig config;
  config.num_threads = 2;
  ServerStack stack(MakeOracle("ch", graph_), config);
  Dijkstra reference(graph_);
  TcpServer tcp(stack, TcpServerConfig{});
  ASSERT_TRUE(tcp.Start());

  LineClient v1;
  BinaryClient v2;
  ASSERT_TRUE(v1.Connect(tcp.Port()));
  std::string line;
  ASSERT_TRUE(v1.ReadLine(&line));
  ASSERT_TRUE(v2.Connect(tcp.Port()));

  for (NodeId t = 0; t < 12; ++t) {
    ASSERT_TRUE(v1.Send("d 1 " + std::to_string(t) + "\n"));
    std::string body;
    PutU32(&body, 1);
    PutU32(&body, t);
    const std::uint64_t id = v2.SendRequest(Opcode::kDistance, body);
    ASSERT_TRUE(v1.ReadLine(&line));
    BinaryClient::Frame frame;
    ASSERT_TRUE(v2.ReadReplyFor(id, &frame));
    const std::string expected = FormatDistance(reference.Distance(1, t));
    EXPECT_EQ(line, expected);
    EXPECT_EQ(ReplyFrameToText(frame.header, frame.payload), expected);
  }
  tcp.Stop();
}

// Every opcode in the v2 table gets a direct on-the-wire exercise: each
// request opcode earns its expected status on a live session, and a
// client-sent kHello — a server-to-client-only opcode — is rejected as
// bad-request instead of wedging the framing loop.
// tools/lint_invariants.py's opcode-coverage check keys on the
// Opcode::<name> literals here: a new opcode must be exercised in this
// file and documented in the README's frame table.
TEST_F(TcpServerTest, V2EveryOpcodeExercisedOnTheWire) {
  auto registry = std::make_shared<IndexRegistry>(
      graph_, std::vector<std::string>{"ch"});
  ServerConfig config;
  config.num_threads = 2;
  ServerStack stack(registry, config);
  stack.SetPois({0, 3, 6, 9});
  TcpServer tcp(stack, TcpServerConfig{});
  ASSERT_TRUE(tcp.Start());

  BinaryClient v2;
  ASSERT_TRUE(v2.Connect(tcp.Port()));

  const NodeId far = static_cast<NodeId>(graph_.NumNodes() - 1);
  ASSERT_GT(graph_.OutArcs(0).size(), 0u);
  const NodeId via = graph_.OutArcs(0)[0].head;
  const Weight heavier =
      static_cast<Weight>(graph_.OutArcs(0)[0].weight + 1);

  auto pair_body = [](NodeId a, NodeId b) {
    std::string body;
    PutU32(&body, a);
    PutU32(&body, b);
    return body;
  };
  std::string batch_body;
  PutU32(&batch_body, 1);
  PutU32(&batch_body, 0);
  PutU32(&batch_body, far);
  std::string matrix_body;
  PutU32(&matrix_body, 1);
  PutU32(&matrix_body, 1);
  PutU32(&matrix_body, 0);
  PutU32(&matrix_body, far);
  std::string update_body;
  PutU32(&update_body, 0);
  PutU32(&update_body, via);
  PutU32(&update_body, static_cast<std::uint32_t>(heavier));

  struct OpcodeCase {
    Opcode opcode;
    std::string body;
    std::string backend;
    bool expect_ok;
  };
  const std::vector<OpcodeCase> cases = {
      {Opcode::kDistance, pair_body(0, far), "", true},
      {Opcode::kPath, pair_body(0, far), "", true},
      {Opcode::kKNearest, pair_body(0, 2), "", true},
      {Opcode::kBatch, batch_body, "", true},
      {Opcode::kMatrix, matrix_body, "", true},
      {Opcode::kStats, {}, "", true},
      {Opcode::kInvalidate, {}, "", true},
      {Opcode::kUse, {}, "ch", true},
      {Opcode::kUpdate, update_body, "", true},
      {Opcode::kUpdateFile, "definitely/not/a/delta-file", "", false},
      {Opcode::kReload, {}, "", true},
      // kHello is the server's banner frame, never a legal request.
      {Opcode::kHello, {}, "", false},
  };
  for (const OpcodeCase& c : cases) {
    const std::uint64_t id = v2.SendRequest(c.opcode, c.body, c.backend);
    ASSERT_NE(id, 0u);
    BinaryClient::Frame frame;
    ASSERT_TRUE(v2.ReadReplyFor(id, &frame))
        << "opcode 0x" << static_cast<int>(c.opcode);
    EXPECT_EQ(frame.header.opcode, c.opcode);
    EXPECT_EQ(frame.header.status == kStatusOk, c.expect_ok)
        << ReplyFrameToText(frame.header, frame.payload);
  }
  ErrorCode hello_error = ErrorCode::kInternal;
  {
    const std::uint64_t id = v2.SendRequest(Opcode::kHello, {});
    BinaryClient::Frame frame;
    ASSERT_TRUE(v2.ReadReplyFor(id, &frame));
    ASSERT_TRUE(ErrorFromStatus(frame.header.status, &hello_error));
    EXPECT_EQ(hello_error, ErrorCode::kBadRequest);
  }

  stack.registry().WaitForRebuild();
  const std::uint64_t quit_id = v2.SendRequest(Opcode::kQuit, {});
  BinaryClient::Frame frame;
  ASSERT_TRUE(v2.ReadReplyFor(quit_id, &frame));
  EXPECT_EQ(frame.header.status, kStatusOk);
  EXPECT_TRUE(v2.AtEof());
  tcp.Stop();
}

}  // namespace
}  // namespace ah::server
