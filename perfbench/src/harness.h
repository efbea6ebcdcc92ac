// Shared plumbing of the three workloads: the production serving stack and
// its timed set-up, the closed-loop client loop, the phase measurements
// every run prints, the result object, and the one driver that runs a
// workload from set-up to its metrics.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/distance_oracle.h"
#include "api/index_registry.h"
#include "checker.h"
#include "graph/graph.h"
#include "recorder.h"
#include "server/result_cache.h"
#include "server/server_stack.h"
#include "server/tcp_server.h"
#include "trace.h"
#include "wire.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  /// A check that is not about one operation failed (self-test, set-up).
  void Incorrect(const std::string& why);
};

/// The production stack: IndexRegistry -> ServerStack -> TcpServer, each
/// with its default configuration, on an ephemeral loopback port.
struct Served {
  std::shared_ptr<ah::IndexRegistry> registry;
  std::unique_ptr<ah::server::ServerStack> stack;
  std::unique_ptr<ah::server::TcpServer> server;
  ah::OracleBuildStats build;  // the first epoch's build

  std::uint16_t port() const { return server->Port(); }
  ~Served();
};

/// One closed-loop step: send one request, wait for and parse its reply.
struct Step {
  bool transport_ok = true;
  bool ok = true;  // an OK reply whose inline checks passed
  std::uint64_t answers = 0;
  std::int64_t sent_ns = 0;  // before the first byte is sent
  std::int64_t done_ns = 0;  // reply parsed
};

using StepFn = std::function<Step(std::uint64_t seq)>;

/// The traced mode's layer replay streams (see replay.h).
enum class ReplayKind { kPath, kDistance, kMatrix };

struct ReplayItem {
  NodeId s = 0;
  NodeId t = 0;
  Dist ref = 0;  // reference distance (point kinds), fills cache warm-up
  std::vector<NodeId> sources;
  std::vector<NodeId> targets;
};

struct ReplayStream {
  ReplayKind kind = ReplayKind::kDistance;
  bool v2 = true;
  int threads = 1;
  /// Fed to the harness cache (lookup, insert on miss) before timing, so
  /// it replays at the fill level and hit ratio of a long run.
  std::vector<ReplayItem> warm;
  std::vector<ReplayItem> items;
};

/// What a load generator beside the closed loops (fleet-ch's update feed)
/// did: its operations and its thread CPU per window of the timed phase.
struct SideLoad {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> cpu;
};

/// A workload, as the driver runs it. The callbacks may capture the
/// workload's inputs by reference; they are called from Drive only.
struct Workload {
  std::string backend;
  int setups = 1;        // stacks built before the run (the last one
                         // serves) and, untraced, again after it
  bool v2 = true;        // v2 frames, else v1 text
  int connections = 1;   // closed-loop query connections
  std::size_t max_rate = 0;  // requests/s per connection the buffers hold
  /// Sends the first request of a fresh stack and checks its answer.
  std::function<bool(Conn& conn)> first;
  /// The step of query connection `c`, which owns `conn`.
  std::function<StepFn(int c, Conn& conn)> make_step;
  /// Optional: a load generator on its own connection for the timed phase.
  std::function<void(Conn& conn, const Phase& phase, SideLoad* side)> side;
  /// After the timed phase: checks of the kept replies and the self-test.
  std::function<void(Result* result)> check;
  /// Traced mode: the request stream of the layer replay.
  std::function<ReplayStream()> replay;
  /// Traced mode, optional: layer figures taken outside the replay.
  std::function<void(Served& served, Tracer& tracer,
                     std::map<std::string, double>* layers, Result* result)>
      layers;
};

/// Sets the workload's stack up, drives it for `options.seconds` after a
/// warm-up, checks it and returns its metrics.
Result Drive(const Options& options, const ah::Graph& g, const Workload& w);

/// Deterministic per-run hash for seeded sampling.
inline std::uint64_t Mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Sleeps until `ns` on the steady clock.
void SleepUntil(std::int64_t ns);

/// Runs one workload; each appends its metrics to the result.
Result RunPathAh(const Options& options);
Result RunHotHl(const Options& options);
Result RunFleetCh(const Options& options);

}  // namespace perfbench
