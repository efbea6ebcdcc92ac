// route_server: the serving stack behind a real front-end. The configured
// backends are built once into an epoch-versioned IndexRegistry served
// through a ServerStack (src/server/) — protocol parsing, generation-tagged
// LRU result cache, admission control, and request stats — either to stdin
// (REPL mode, the default) or over TCP (--listen).
//
// Protocol (see src/server/protocol.h; same grammar on stdin and TCP):
//   [@<backend>] d <s> <t>          distance (on a named backend, or default)
//   [@<backend>] p <s> <t>          shortest path
//   [@<backend>] k <s> <k>          k nearest POIs
//   [@<backend>] b <n> <s1> <t1>... batch of n distance queries
//   [@<backend>] m <ns> <nt> <s...> <t...>   ns x nt distance matrix
//   use <backend>                   switch the server default backend
//   upd <u> <v> <w>                 queue weight w for arc u->v
//   reload                          rebuild + hot-swap all backends (async)
//   stats | inv | q                 stats / cache clear / quit
// REPL extras (client-side convenience, not part of the protocol):
//   bench <n>                       n random queries as one batch, prints QPS
//   wait                            block until a pending rebuild finishes
//
// Usage:
//   route_server [dimacs-base] [--backends ch,alt,...] [--listen <port>]
//                [--protocol v1|v2] [--cache <entries>] [--cache-ttl-ms <n>]
//                [--admission <n>] [--admission-per-client <n>]
//                [--timeout-ms <n>] [--matrix-max-locations <n>]
//                [--rebuild-policy frozen|scratch]
//                [--min-reload-interval-ms <n>]
//   route_server --smoke    # self-test: TCP round-trip + live-reload swap
//                           # + a v2 binary session cross-checked against v1
//
// --protocol v2 routes every REPL line through the v2 binary codec — the
// line is parsed, encoded as a request frame, decoded server-side, executed
// on the same stack, and the reply frame rendered back to the v1 text — so
// operators can eyeball binary-protocol behavior without a binary client.
//
// Demo:
//   printf 'd 0 500\nupd 0 1 9\nreload\nwait\nd 0 500\nq\n' |
//       ./build/examples/route_server --backends ch,alt
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/distance_oracle.h"
#include "api/index_registry.h"
#include "gen/road_gen.h"
#include "graph/dimacs.h"
#include "routing/dijkstra.h"
#include "server/binary_protocol.h"
#include "server/line_client.h"
#include "server/protocol.h"
#include "server/server_stack.h"
#include "server/tcp_server.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace ah;
using namespace ah::server;

std::vector<NodeId> MakePois(std::size_t num_nodes, std::size_t count,
                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<NodeId> pois;
  pois.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    pois.push_back(static_cast<NodeId>(rng.Uniform(num_nodes)));
  }
  return pois;
}

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= csv.size()) {
    const std::size_t comma = csv.find(',', begin);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > begin) out.push_back(csv.substr(begin, end - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return out;
}

// REPL convenience: `bench <n>` issues n random queries as one protocol
// batch request and reports client-observed throughput.
void RunBenchCommand(ServerStack& stack, std::size_t count) {
  constexpr std::size_t kMaxBench = 1000000;
  if (count == 0 || count > kMaxBench) {
    std::printf("? usage: bench <n> with 0 < n <= %zu\n", kMaxBench);
    return;
  }
  const std::size_t num_nodes = stack.NumNodes();
  const std::size_t max_batch = stack.config().max_batch;
  Rng rng(count);
  Timer timer;
  std::size_t remaining = count;
  std::size_t errors = 0;
  while (remaining > 0) {
    const std::size_t chunk = std::min(remaining, max_batch);
    std::string line = "b " + std::to_string(chunk);
    for (std::size_t i = 0; i < chunk; ++i) {
      line += ' ';
      line += std::to_string(rng.Uniform(num_nodes));
      line += ' ';
      line += std::to_string(rng.Uniform(num_nodes));
    }
    if (stack.HandleLine(line).rfind("OK b ", 0) != 0) ++errors;
    remaining -= chunk;
  }
  const double seconds = timer.Seconds();
  std::printf("bench: %zu queries in %.1f ms, %.0f queries/s (%zu errors)\n",
              count, seconds * 1e3,
              seconds > 0 ? static_cast<double>(count) / seconds : 0.0,
              errors);
}

// One REPL line over the v2 wire codec: parse, encode a request frame,
// decode it server-side (the same entry TCP v2 connections use), execute,
// encode the reply frame, and render it back to v1 text. Exercises the
// full binary round trip in-process.
std::string HandleLineV2(ServerStack& stack, std::string_view line,
                         std::uint64_t request_id, bool* close) {
  ParseResult parsed = ParseRequest(line, stack.Limits());
  Opcode opcode = Opcode::kQuit;
  if (parsed.ok) {
    opcode = OpcodeForKind(parsed.request.kind);
    const std::string frame = EncodeRequestFrame(
        opcode, request_id, parsed.request.backend,
        EncodeRequestBody(parsed.request));
    FrameHeader header;
    std::string_view payload;
    if (TryReadFrame(frame, &header, &payload) != frame.size()) {
      return FormatError(ErrorCode::kInternal, "request frame round trip");
    }
    parsed = DecodeRequest(header, payload, stack.Limits());
  }

  // SubmitDecoded answers on an engine worker for index-bound requests;
  // block here like HandleLine does for the text path.
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Reply reply;
  stack.SubmitDecoded(std::move(parsed), 0, [&](Reply r) {
    std::lock_guard<std::mutex> lock(mu);
    reply = std::move(r);
    done = true;
    cv.notify_one();
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
  }
  if (close != nullptr) *close = reply.close;

  const std::string frame = EncodeReplyFrame(reply, opcode, request_id);
  FrameHeader header;
  std::string_view payload;
  if (TryReadFrame(frame, &header, &payload) != frame.size()) {
    return FormatError(ErrorCode::kInternal, "reply frame round trip");
  }
  return ReplyFrameToText(header, payload);
}

void ReplLoop(ServerStack& stack, bool v2) {
  std::string line;
  std::uint64_t next_id = 0;
  while (std::getline(std::cin, line)) {
    if (line.rfind("bench", 0) == 0) {
      const std::size_t n =
          static_cast<std::size_t>(std::strtoull(line.c_str() + 5, nullptr, 10));
      RunBenchCommand(stack, n);
      continue;
    }
    if (line == "wait") {
      Timer timer;
      stack.registry().WaitForRebuild();
      std::printf("rebuild idle after %.1f ms\n", timer.Seconds() * 1e3);
      continue;
    }
    bool close = false;
    const std::string reply = v2 ? HandleLineV2(stack, line, ++next_id, &close)
                                 : stack.HandleLine(line, &close);
    std::printf("%s\n", reply.c_str());
    if (close) break;
  }
}

// ---------------------------------------------------------------------------
// --smoke: end-to-end self-test over a real loopback socket. Starts a
// two-backend registry behind the TCP server on an ephemeral port, runs a
// scripted request batch (valid, malformed, cached, versioned,
// backend-prefixed), then drives a live weight update through
// upd/reload — continuous correctness is cross-checked against Dijkstra
// references built on the original and the updated graph, and the swap must
// retire cache entries by generation, not via Clear(). Exit code 0 iff
// every check passes.
// ---------------------------------------------------------------------------

#define SMOKE_CHECK(cond, what)                                  \
  do {                                                           \
    if (!(cond)) {                                               \
      std::printf("SMOKE FAIL: %s (%s:%d)\n", what, __FILE__, __LINE__); \
      return 1;                                                  \
    }                                                            \
  } while (0)

int RunSmoke(const std::vector<std::string>& backends) {
  RoadGenParams gen;
  gen.cols = gen.rows = 12;
  gen.seed = 8;
  const Graph graph = GenerateRoadNetwork(gen);
  Dijkstra reference(graph);

  ServerConfig config;
  config.cache_capacity = 1024;
  config.admission_capacity = 16;
  // Tiny matrix cap so the smoke exercises the too-large policy reply.
  config.max_matrix_locations = 4;
  std::shared_ptr<IndexRegistry> registry;
  try {
    registry = std::make_shared<IndexRegistry>(graph, backends);
  } catch (const std::exception& e) {
    std::printf("SMOKE FAIL: %s\n", e.what());
    return 1;
  }
  ServerStack stack(registry, config);
  stack.SetPois(MakePois(graph.NumNodes(), 20, 4));

  TcpServer tcp(stack, TcpServerConfig{});
  std::string error;
  SMOKE_CHECK(tcp.Start(&error), error.c_str());
  std::printf("smoke: %zu backend(s), default %s, on 127.0.0.1:%u over %zu "
              "nodes\n",
              backends.size(), registry->DefaultBackend().c_str(), tcp.Port(),
              graph.NumNodes());

  LineClient client;
  SMOKE_CHECK(client.Connect(tcp.Port()), "connect");
  std::string line;
  SMOKE_CHECK(client.ReadLine(&line), "read greeting");
  SMOKE_CHECK(line.rfind("AH/1 ready ", 0) == 0, "greeting banner");

  const NodeId far = static_cast<NodeId>(graph.NumNodes() - 1);
  const Dist expected = reference.Distance(0, far);
  const std::string dist_query = "d 0 " + std::to_string(far);
  const std::string second = backends.size() > 1 ? backends[1] : backends[0];

  // A 2x2 matrix over {0, mid} x {far, mid}, checked cell by cell against
  // the Dijkstra reference (row-major by source).
  const NodeId mid = static_cast<NodeId>(graph.NumNodes() / 2);
  const std::string matrix_query = "m 2 2 0 " + std::to_string(mid) + " " +
                                   std::to_string(far) + " " +
                                   std::to_string(mid);
  auto matrix_reply = [&](Dijkstra& dij) {
    return FormatMatrix(2, 2,
                        {dij.Distance(0, far), dij.Distance(0, mid),
                         dij.Distance(mid, far), dij.Distance(mid, mid)});
  };

  struct Step {
    std::string request;
    std::string expect;  // exact reply, or prefix when ends with '*'
  };
  const std::vector<Step> steps = {
      // Valid traffic, cross-checked against the Dijkstra reference.
      {dist_query, FormatDistance(expected)},
      {"AH/1 " + dist_query, FormatDistance(expected)},  // versioned form
      // Every configured backend answers identically via the @ prefix.
      {"@" + backends.front() + " " + dist_query, FormatDistance(expected)},
      {"@" + second + " " + dist_query, FormatDistance(expected)},
      {"p 0 " + std::to_string(far), "OK p " + std::to_string(expected) + " *"},
      {"k 0 3", "OK k 3 *"},
      {"b 2 0 " + std::to_string(far) + " " + std::to_string(far) + " 0",
       "OK b 2 *"},
      // Many-to-many matrix: exact cells on the default and on a named
      // backend; a repeat (computed again, matrices bypass the cache) must
      // be bit-identical.
      {matrix_query, matrix_reply(reference)},
      {"@" + second + " " + matrix_query, matrix_reply(reference)},
      {matrix_query, matrix_reply(reference)},
      // Repeat: must now be a cache hit, bit-identical reply.
      {dist_query, FormatDistance(expected)},
      // Admin: switch the default backend and back.
      {"use " + second, "OK use " + second},
      {dist_query, FormatDistance(expected)},
      {"use " + backends.front(), "OK use " + backends.front()},
      // Malformed traffic: structured errors, not clamping or hangs.
      {"d 0", "ERR bad-request*"},
      {"d -1 5", "ERR bad-node*"},
      {"d 0 " + std::to_string(graph.NumNodes()), "ERR bad-node*"},
      {"AH/9 d 0 1", "ERR unsupported-version*"},
      {"fly 0 1", "ERR bad-request*"},
      {"", "ERR bad-request*"},
      {"@nosuch d 0 1", "ERR bad-backend*"},
      {"use nosuch", "ERR bad-backend*"},
      {"upd 0 0 7", "ERR bad-arc*"},          // no self-loop in the network
      {"upd 0 1 0", "ERR bad-request*"},      // zero weight
      {"upd 0 999999 5", "ERR bad-node*"},
      {"@" + second + " reload", "ERR bad-request*"},  // selector misuse
      // Matrix policy + validation errors.
      {"m 5 1 0 1 2 3 4 5", "ERR too-large*"},   // side over the cap of 4
      {"m 2 2 0 1 2", "ERR bad-request*"},       // wrong token count
      {"m 0 2 1 2", "ERR bad-request*"},         // zero-sized side
      {"m 2 2 0 1 2 999999", "ERR bad-node*"},   // node out of range
      // Cache invalidation then stats.
      {"inv", "OK inv"},
      {"stats", "OK stats *"},
  };
  auto run_steps = [&](const std::vector<Step>& script) -> bool {
    for (const Step& step : script) {
      if (!client.SendLine(step.request)) return false;
      if (!client.ReadLine(&line)) return false;
      const bool prefix = !step.expect.empty() && step.expect.back() == '*';
      const std::string want =
          prefix ? step.expect.substr(0, step.expect.size() - 1) : step.expect;
      const bool match = prefix ? line.rfind(want, 0) == 0 : line == want;
      if (!match) {
        std::printf("SMOKE FAIL: request '%s'\n  want %s'%s'\n  got  '%s'\n",
                    step.request.c_str(), prefix ? "prefix " : "",
                    want.c_str(), line.c_str());
        return false;
      }
    }
    return true;
  };
  SMOKE_CHECK(run_steps(steps), "scripted request batch");

  // The repeated distance query must have hit the cache; `inv` counts as a
  // clear (generation invalidations come later, from the swap).
  CacheStats cache = stack.cache().Totals();
  SMOKE_CHECK(cache.hits > 0, "expected cache hits");
  SMOKE_CHECK(cache.clears == 1, "expected one cache clear");
  SMOKE_CHECK(cache.invalidations == 0, "no generation drops before swap");

  // ---- Live weight update + zero-downtime hot swap ----------------------
  // Make the first arc out of node 0 drastically heavier, reload, and wait
  // for the background rebuild to swap every backend. Replies before the
  // swap match the old Dijkstra, after it the updated one; the stale cache
  // entry for dist_query must be retired by its generation tag (no Clear).
  SMOKE_CHECK(graph.OutArcs(0).size() > 0, "node 0 has an out-arc");
  const NodeId via = graph.OutArcs(0)[0].head;
  const Weight new_weight =
      static_cast<Weight>(graph.OutArcs(0)[0].weight * 1000 + 1);
  Graph updated = graph;
  updated.SetArcWeight(0, via, new_weight);
  Dijkstra updated_reference(updated);
  const Dist updated_expected = updated_reference.Distance(0, far);

  // Warm the cache with the pre-swap answer so the swap has something to
  // invalidate by generation.
  SMOKE_CHECK(run_steps({{dist_query, FormatDistance(expected)}}),
              "pre-swap query");
  const std::string upd_request = "upd 0 " + std::to_string(via) + " " +
                                  std::to_string(new_weight);
  SMOKE_CHECK(run_steps({{upd_request, "OK upd 1"}, {"reload", "OK reload 1"}}),
              "queue update + reload");
  registry->WaitForRebuild();
  for (const std::string& backend : backends) {
    SMOKE_CHECK(registry->Generation(backend) == 2, "generation bumped to 2");
  }
  // Same query, every backend: now the updated answer — the old epoch's
  // cached entries must not leak through, and the matrix is computed on
  // the fresh epoch.
  SMOKE_CHECK(run_steps({{dist_query, FormatDistance(updated_expected)},
                         {"@" + second + " " + dist_query,
                          FormatDistance(updated_expected)},
                         {matrix_query, matrix_reply(updated_reference)}}),
              "post-swap queries");
  cache = stack.cache().Totals();
  SMOKE_CHECK(cache.invalidations >= 1, "swap retired stale entry by tag");
  SMOKE_CHECK(cache.clears == 1, "swap did not Clear() the cache");
  SMOKE_CHECK(stack.registry().GetStats().updates_applied == 1,
              "one update applied");

  // ---- v2 binary session ------------------------------------------------
  // Negotiate on the same port, then replay a query mix (point, batch,
  // matrix, named backend, k-nearest, path) over both connections: every v2
  // reply frame must render to exactly the text the v1 connection returns
  // for the same request. stats is prefix-checked — its counters advance
  // between the two requests by design.
  BinaryClient v2;
  SMOKE_CHECK(v2.Connect(tcp.Port()), "v2 connect + hello");
  SMOKE_CHECK(v2.nodes() == graph.NumNodes(), "hello node count");
  SMOKE_CHECK(v2.arcs() == graph.NumArcs(), "hello arc count");
  const std::vector<std::string> v2_queries = {
      dist_query,
      "@" + second + " " + dist_query,
      "b 3 0 " + std::to_string(far) + " " + std::to_string(far) + " 0 " +
          std::to_string(mid) + " " + std::to_string(mid),
      matrix_query,
      "@" + second + " " + matrix_query,
      "p 0 " + std::to_string(far),
      "k 0 3",
  };
  for (const std::string& query : v2_queries) {
    SMOKE_CHECK(client.SendLine(query), "v1 send");
    SMOKE_CHECK(client.ReadLine(&line), "v1 reply");
    const ParseResult parsed = ParseRequest(query, stack.Limits());
    SMOKE_CHECK(parsed.ok, "v2 parse");
    const std::uint64_t id =
        v2.SendRequest(OpcodeForKind(parsed.request.kind),
                       EncodeRequestBody(parsed.request),
                       parsed.request.backend);
    SMOKE_CHECK(id != 0, "v2 send");
    BinaryClient::Frame frame;
    SMOKE_CHECK(v2.ReadReplyFor(id, &frame), "v2 reply");
    if (ReplyFrameToText(frame.header, frame.payload) != line) {
      std::printf("SMOKE FAIL: v2 reply diverges on '%s'\n  v1 '%s'\n  v2 "
                  "'%s'\n",
                  query.c_str(), line.c_str(),
                  ReplyFrameToText(frame.header, frame.payload).c_str());
      return 1;
    }
  }
  {
    const std::uint64_t id = v2.SendRequest(Opcode::kStats, {});
    BinaryClient::Frame frame;
    SMOKE_CHECK(v2.ReadReplyFor(id, &frame), "v2 stats reply");
    SMOKE_CHECK(frame.header.status == kStatusOk, "v2 stats ok");
    const std::string text = ReplyFrameToText(frame.header, frame.payload);
    SMOKE_CHECK(text.rfind("OK stats ", 0) == 0, "v2 stats render");
    SMOKE_CHECK(text.find("v2_requests=") != std::string::npos,
                "stats counts v2 requests");
    const std::uint64_t quit_id = v2.SendRequest(Opcode::kQuit, {});
    SMOKE_CHECK(v2.ReadReplyFor(quit_id, &frame), "v2 quit reply");
    SMOKE_CHECK(frame.header.status == kStatusOk, "v2 quit ok");
    SMOKE_CHECK(v2.AtEof(), "server closes v2 session after quit");
  }

  SMOKE_CHECK(client.SendLine("q"), "send quit");
  SMOKE_CHECK(client.ReadLine(&line), "read bye");
  SMOKE_CHECK(line == "OK bye", "quit reply");
  SMOKE_CHECK(client.AtEof(), "server closes after quit");

  tcp.Stop();
  std::printf(
      "smoke: all scripted replies correct across %zu backend(s) and both "
      "protocols, %llu cache hits, swap to generation 2 verified\n",
      backends.size(), static_cast<unsigned long long>(cache.hits));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dimacs_base;
  std::vector<std::string> backends = {"ah"};
  bool backends_set = false;
  bool smoke = false;
  bool listen = false;
  bool repl_v2 = false;
  std::uint16_t port = 0;
  ServerConfig config;
  IndexRegistry::RebuildPolicy rebuild_policy =
      IndexRegistry::RebuildPolicy::kFrozenOrder;
  std::chrono::milliseconds min_reload_interval{0};

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--backend" || arg == "--backends") {
      backends = SplitCsv(next_value(arg.c_str()));
      backends_set = true;
      if (backends.empty()) {
        std::fprintf(stderr, "%s needs at least one backend name\n",
                     arg.c_str());
        return 2;
      }
    } else if (arg == "--protocol") {
      const std::string value = next_value("--protocol");
      if (value == "v1") {
        repl_v2 = false;
      } else if (value == "v2") {
        repl_v2 = true;
      } else {
        std::fprintf(stderr, "--protocol wants 'v1' or 'v2', got %s\n",
                     value.c_str());
        return 2;
      }
    } else if (arg == "--listen") {
      listen = true;
      port = static_cast<std::uint16_t>(
          std::strtoul(next_value("--listen"), nullptr, 10));
    } else if (arg == "--cache") {
      config.cache_capacity = static_cast<std::size_t>(
          std::strtoull(next_value("--cache"), nullptr, 10));
    } else if (arg == "--cache-ttl-ms") {
      config.cache_ttl = std::chrono::milliseconds(
          std::strtoull(next_value("--cache-ttl-ms"), nullptr, 10));
    } else if (arg == "--admission") {
      config.admission_capacity = static_cast<std::size_t>(
          std::strtoull(next_value("--admission"), nullptr, 10));
    } else if (arg == "--admission-per-client") {
      config.admission_per_client = static_cast<std::size_t>(
          std::strtoull(next_value("--admission-per-client"), nullptr, 10));
    } else if (arg == "--timeout-ms") {
      config.request_timeout = std::chrono::milliseconds(
          std::strtoull(next_value("--timeout-ms"), nullptr, 10));
    } else if (arg == "--matrix-max-locations") {
      config.max_matrix_locations = static_cast<std::size_t>(
          std::strtoull(next_value("--matrix-max-locations"), nullptr, 10));
    } else if (arg == "--rebuild-policy") {
      const std::string value = next_value("--rebuild-policy");
      if (value == "frozen") {
        rebuild_policy = IndexRegistry::RebuildPolicy::kFrozenOrder;
      } else if (value == "scratch") {
        rebuild_policy = IndexRegistry::RebuildPolicy::kFromScratch;
      } else {
        std::fprintf(stderr,
                     "--rebuild-policy wants 'frozen' or 'scratch', got %s\n",
                     value.c_str());
        return 2;
      }
    } else if (arg == "--min-reload-interval-ms") {
      min_reload_interval = std::chrono::milliseconds(
          std::strtoull(next_value("--min-reload-interval-ms"), nullptr, 10));
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    } else {
      dimacs_base = arg;
    }
  }

  if (smoke) {
    // Fast-building backends by default so the swap scenario exercises
    // multi-backend routing; hl second so the @-prefix and `use` steps
    // route through the label tables. --backends overrides.
    if (!backends_set) backends = {"ch", "hl", "alt"};
    return RunSmoke(backends);
  }

  Graph graph;
  if (!dimacs_base.empty()) {
    std::printf("loading DIMACS network %s ...\n", dimacs_base.c_str());
    graph = ReadDimacsFiles(dimacs_base);
  } else {
    RoadGenParams gen;
    gen.cols = gen.rows = 70;
    gen.seed = 8;
    graph = GenerateRoadNetwork(gen);
  }
  std::printf("network: %zu nodes, %zu arcs\n", graph.NumNodes(),
              graph.NumArcs());

  Timer build;
  std::shared_ptr<IndexRegistry> registry;
  try {
    registry = std::make_shared<IndexRegistry>(std::move(graph), backends);
  } catch (const std::exception& e) {
    // Duplicate or unknown names in --backends land here: a clean CLI
    // error, not an uncaught throw.
    std::fprintf(stderr, "cannot build backends: %s\n", e.what());
    return 2;
  }
  registry->SetRebuildPolicy(rebuild_policy);
  registry->SetMinReloadInterval(min_reload_interval);
  ServerStack stack(registry, config);
  stack.SetPois(MakePois(stack.NumNodes(), 50, 4));
  std::printf("%zu backend(s) ready in %.2fs; cache %zu entries (ttl %lld "
              "ms), admission %zu in flight, %lld ms deadline\n",
              backends.size(), build.Seconds(), config.cache_capacity,
              static_cast<long long>(config.cache_ttl.count()),
              config.admission_capacity,
              static_cast<long long>(config.request_timeout.count()));
  for (const std::string& backend : backends) {
    const EpochHandle epoch = registry->Current(backend);
    std::printf("  %-10s gen %llu, %.1f MB, built in %.2fs%s\n",
                backend.c_str(),
                static_cast<unsigned long long>(epoch->generation),
                static_cast<double>(epoch->oracle->BuildStats().index_bytes) /
                    (1024.0 * 1024.0),
                epoch->oracle->BuildStats().seconds,
                backend == registry->DefaultBackend() ? "  [default]" : "");
  }

  if (listen) {
    TcpServerConfig tcp_config;
    tcp_config.port = port;
    TcpServer tcp(stack, tcp_config);
    std::string error;
    if (!tcp.Start(&error)) {
      std::fprintf(stderr, "cannot listen: %s\n", error.c_str());
      return 1;
    }
    std::printf(
        "listening on 127.0.0.1:%u — try: printf 'd 0 500\\nq\\n' | nc "
        "127.0.0.1 %u\nREPL still active on stdin; 'q' or EOF stops the "
        "server.\n",
        tcp.Port(), tcp.Port());
    ReplLoop(stack, repl_v2);
    tcp.Stop();
    return 0;
  }

  std::printf(
      "commands: d|p|k|b|m|use|upd|updf|reload|stats|inv|q (protocol %s), "
      "bench <n> / wait (REPL)\n",
      repl_v2 ? "v2 frame round trip" : "v1");
  ReplLoop(stack, repl_v2);
  return 0;
}
