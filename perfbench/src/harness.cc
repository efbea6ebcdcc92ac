#include "harness.h"

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "replay.h"

namespace perfbench {
namespace {

constexpr double kWarmSeconds = 2.0;

/// Process-wide counters, read by the observing thread at every window
/// edge of the timed phase (windows + 1 reads).
struct Probe {
  double process_cpu = 0;
  std::uint64_t steal_ticks = 0;  // host steal over all CPUs, /proc/stat
  std::uint64_t wire_bytes = 0;
  ah::server::CacheStats cache;
};

/// What one query connection did.
struct Tally {
  LoopRecord record;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool transport_failed = false;
};

/// End-to-end figures of the timed phase.
struct PhaseFigures {
  LatencySummary latency;
  double qps = 0;  // median over the windows
  double cpu_us_per_q = 0;
  std::uint64_t answers = 0;
  std::uint64_t dropped = 0;  // samples past the latency buffers
  double bytes_per_q = 0;
  ah::server::CacheStats cache;  // delta over the phase
  std::vector<double> window_qps;
  std::vector<std::uint64_t> window_steal;

  double hit_ratio() const {
    const std::uint64_t lookups = cache.hits + cache.misses;
    return lookups == 0 ? 0.0 : static_cast<double>(cache.hits) / lookups;
  }
  double evictions_per_kq() const {
    return answers == 0 ? 0.0 : 1000.0 * cache.evictions / answers;
  }
};

// Host steal ticks so far, summed over all CPUs (0 when unreadable).
std::uint64_t StealTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t v[8] = {};
  stat >> cpu;
  for (std::uint64_t& x : v) stat >> x;
  return cpu == "cpu" ? v[7] : 0;  // user nice system idle iowait irq softirq steal
}

Probe TakeProbe(ah::server::ServerStack& stack) {
  Probe p;
  p.process_cpu = ProcessCpuSeconds();
  p.steal_ticks = StealTicks();
  p.wire_bytes = stack.wire().bytes_in.load() + stack.wire().bytes_out.load();
  p.cache = stack.cache().Totals();
  return p;
}

// Sets the stack up `count` times, each timed from the graph in memory to
// the first answer (index build plus server start), appends the set-up and
// build times, and returns the last stack. Throws on failure.
std::unique_ptr<Served> SetUp(const ah::Graph& g, const Workload& w, int count,
                              std::vector<double>* setups,
                              std::vector<double>* builds) {
  std::unique_ptr<Served> served;
  for (int i = 0; i < count; ++i) {
    served.reset();  // tear the previous stack down before timing the next
    const std::int64_t t0 = NowNs();
    auto s = std::make_unique<Served>();
    s->registry = std::make_shared<ah::IndexRegistry>(
        g, std::vector<std::string>{w.backend});
    s->stack = std::make_unique<ah::server::ServerStack>(
        s->registry, ah::server::ServerConfig{});
    s->server = std::make_unique<ah::server::TcpServer>(*s->stack);
    std::string error;
    if (!s->server->Start(&error)) {
      throw std::runtime_error("server start failed: " + error);
    }
    Conn conn;
    if (!conn.Open(s->port(), w.v2) || !w.first(conn)) {
      throw std::runtime_error("first request failed");
    }
    setups->push_back((NowNs() - t0) / 1e9);
    s->build = s->registry->Current()->oracle->BuildStats();
    builds->push_back(s->build.seconds);
    served = std::move(s);
  }
  return served;
}

void PrintSetUps(const Workload& w, const std::vector<double>& setups) {
  std::printf("setup: %zu builds of %s, set-up times", setups.size(),
              w.backend.c_str());
  for (double s : setups) std::printf(" %.3f", s);
  std::printf(" s\n");
}

// The timed phase: one-second windows after the warm-up.
Phase MakePhase(int seconds) {
  Phase p;
  p.start_ns = NowNs() + static_cast<std::int64_t>(kWarmSeconds * 1e9);
  p.windows = static_cast<std::size_t>(seconds);
  p.window_ns = 1'000'000'000;
  return p;
}

// Drives `step(seq)` back to back from now until the phase ends, recording
// the latency and answers of the requests sent inside the phase.
void RunClosedLoop(const Phase& phase, const StepFn& step, Tally* tally,
                   std::size_t max_rate) {
  tally->record.Reset(phase, max_rate * phase.windows);
  for (std::uint64_t seq = 0;; ++seq) {
    const std::int64_t now = NowNs();
    tally->record.Tick(phase, now);
    if (now >= phase.end_ns()) break;
    const Step r = step(seq);
    ++tally->attempted;
    if (!r.transport_ok) {
      ++tally->failed;
      tally->transport_failed = true;
      return;
    }
    if (!r.ok) ++tally->failed;
    tally->record.Record(phase, r.sent_ns, r.done_ns, r.answers);
  }
}

// Reads the probes at every window edge of the phase.
std::vector<Probe> ObservePhase(const Phase& phase,
                                ah::server::ServerStack& stack) {
  std::vector<Probe> probes;
  for (std::size_t w = 0; w <= phase.windows; ++w) {
    SleepUntil(phase.start_ns + phase.window_ns * static_cast<std::int64_t>(w));
    probes.push_back(TakeProbe(stack));
  }
  return probes;
}

// The phase's figures over all its windows. Throughput is the median over
// the windows, so one disturbed second does not decide it; CPU per answer
// subtracts the load generator's own thread CPU (`generator_cpu` for
// threads that keep no LoopRecord).
PhaseFigures Figures(const Phase& phase, const std::vector<Tally>& tallies,
                     const std::vector<Probe>& probes,
                     const std::vector<double>& generator_cpu) {
  PhaseFigures f;
  std::vector<std::uint64_t> samples;
  double server_cpu = probes.back().process_cpu - probes.front().process_cpu;
  for (std::size_t w = 0; w < phase.windows; ++w) {
    std::uint64_t answers = 0;
    for (const Tally& t : tallies) answers += t.record.window_answers(w);
    f.window_qps.push_back(static_cast<double>(answers) /
                           (phase.window_ns / 1e9));
    f.window_steal.push_back(probes[w + 1].steal_ticks - probes[w].steal_ticks);
    f.answers += answers;
    if (w < generator_cpu.size()) server_cpu -= generator_cpu[w];
  }
  for (const Tally& t : tallies) {
    t.record.AppendSamples(0, phase.windows, &samples);
    for (std::size_t w = 0; w < phase.windows; ++w) {
      server_cpu -= t.record.window_cpu(w);
    }
    f.dropped += t.record.dropped();
  }
  f.qps = Median(f.window_qps);
  f.latency = Summarize(std::move(samples));
  const double answers = static_cast<double>(std::max<std::uint64_t>(1, f.answers));
  f.cpu_us_per_q = server_cpu / answers * 1e6;
  const Probe& begin = probes.front();
  const Probe& end = probes.back();
  f.bytes_per_q = static_cast<double>(end.wire_bytes - begin.wire_bytes) / answers;
  f.cache.hits = end.cache.hits - begin.cache.hits;
  f.cache.misses = end.cache.misses - begin.cache.misses;
  f.cache.insertions = end.cache.insertions - begin.cache.insertions;
  f.cache.evictions = end.cache.evictions - begin.cache.evictions;
  return f;
}

void PrintFigures(const PhaseFigures& f) {
  std::printf(
      "timed: samples=%zu p50=%.2fus p99=%.2fus %s=%.2fus qps=%.1f "
      "cpu_per_q=%.3fus bytes_per_q=%.1f\n",
      f.latency.samples, f.latency.p50_us, f.latency.p99_us,
      f.latency.tail_label.empty() ? "tail" : f.latency.tail_label.c_str(),
      f.latency.tail_us, f.qps, f.cpu_us_per_q, f.bytes_per_q);
  if (f.dropped > 0) {
    std::printf("timed: %llu latency samples dropped (buffer full)\n",
                static_cast<unsigned long long>(f.dropped));
  }
  std::printf("timed: windows (qps/host steal ticks):");
  for (std::size_t w = 0; w < f.window_qps.size(); ++w) {
    std::printf(" %.0f/%llu", f.window_qps[w],
                static_cast<unsigned long long>(f.window_steal[w]));
  }
  std::printf("\ncache: %llu hits, %llu misses, hit ratio %.4f, %.1f "
              "evictions per 1,000 answers\n",
              static_cast<unsigned long long>(f.cache.hits),
              static_cast<unsigned long long>(f.cache.misses), f.hit_ratio(),
              f.evictions_per_kq());
}

// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0;
}

// Sum of OracleBuildStats::index_bytes over the registry's live epochs.
double IndexMB(const ah::IndexRegistry& registry) {
  double bytes = 0;
  for (const std::string& name : registry.Backends()) {
    bytes += static_cast<double>(
        registry.Current(name)->oracle->BuildStats().index_bytes);
  }
  return bytes / 1e6;
}

// Adds every per-layer metric, in BENCHMARK.json order. Layers the
// workload does not run are absent from `measured`; they read 0 and are
// named on one output line.
void AddLayers(Result* result, const std::map<std::string, double>& measured) {
  static const std::pair<const char*, const char*> kLayers[] = {
      {"tcp.overhead_us", "us"},      {"tcp.bytes_per_q", "B"},
      {"v1.parse_us", "us"},          {"v1.format_us", "us"},
      {"v2.decode_us", "us"},         {"v2.encode_us", "us"},
      {"stack.submit_us", "us"},      {"cache.lookup_us", "us"},
      {"cache.insert_us", "us"},      {"cache.hit_ratio", "ratio"},
      {"cache.evictions_per_kq", "count"},
      {"admission.admit_us", "us"},   {"engine.queue_wait_us", "us"},
      {"engine.lease_us", "us"},      {"search.dist_us", "us"},
      {"search.path_us", "us"},       {"search.path_nodes", "count"},
      {"matrix.us", "us"},            {"matrix.1t_us", "us"},
      {"registry.reload_s", "s"},     {"registry.fallbacks", "count"},
      {"repair.frozen_s", "s"},       {"repair.scratch_s", "s"},
      {"build.s", "s"},               {"build.index_mb", "MB"},
      {"refresh_s", "s"},             {"trace.p50_us", "us"},
      {"trace.qps", "1/s"},           {"trace.untraced_p50_us", "us"},
      {"trace.untraced_qps", "1/s"},
  };
  std::string absent;
  for (const auto& [name, unit] : kLayers) {
    const auto it = measured.find(name);
    if (it == measured.end()) absent += std::string(" ") + name;
    result->Add(name, it == measured.end() ? 0.0 : it->second, unit);
  }
  std::printf("layers not run by this workload (reported as 0):%s\n",
              absent.c_str());
}

}  // namespace

void Result::Incorrect(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "INCORRECT: %s\n", why.c_str());
}

Served::~Served() {
  // The server's I/O thread calls into the stack; stop it first.
  if (server) server->Stop();
  server.reset();
  stack.reset();
  registry.reset();
}

void SleepUntil(std::int64_t ns) {
  const std::int64_t now = NowNs();
  if (ns > now) std::this_thread::sleep_for(std::chrono::nanoseconds(ns - now));
}

Result Drive(const Options& options, const ah::Graph& g, const Workload& w) {
  Result result;
  std::vector<double> setups;
  std::vector<double> builds;
  const std::unique_ptr<Served> served =
      SetUp(g, w, w.setups, &setups, &builds);
  PrintSetUps(w, setups);

  std::vector<std::unique_ptr<Conn>> conns;
  for (int c = 0; c < w.connections + (w.side ? 1 : 0); ++c) {
    conns.push_back(std::make_unique<Conn>());
    if (!conns.back()->Open(served->port(), w.v2)) {
      result.Incorrect("client connect failed");
      return result;
    }
  }
  const Phase phase = MakePhase(options.seconds);
  std::vector<Tally> tallies(static_cast<std::size_t>(w.connections));
  SideLoad side;
  side.cpu.assign(phase.windows, 0);
  std::vector<std::thread> threads;
  for (int c = 0; c < w.connections; ++c) {
    threads.emplace_back([&, c] {
      RunClosedLoop(phase, w.make_step(c, *conns[c]), &tallies[c], w.max_rate);
    });
  }
  if (w.side) threads.emplace_back([&] { w.side(*conns.back(), phase, &side); });
  const std::vector<Probe> probes = ObservePhase(phase, *served->stack);
  for (std::thread& t : threads) t.join();

  result.attempted = side.attempted;
  result.failed = side.failed;
  for (const Tally& t : tallies) {
    result.attempted += t.attempted;
    result.failed += t.failed;
    if (t.transport_failed) result.Incorrect("a connection failed");
  }
  const PhaseFigures f = Figures(phase, tallies, probes, side.cpu);
  PrintFigures(f);
  const double index_mb = IndexMB(*served->registry);
  const double rss_mb = PeakRssMiB();  // before the checker's own work
  w.check(&result);

  if (!options.trace) {
    // As many set-ups again after the timed phase, so setup_s samples the
    // host at both ends of the run.
    SetUp(g, w, w.setups, &setups, &builds);
    PrintSetUps(w, setups);
    // p50 and qps are printed on the timed: line only; see README.md
    // (Steadiness) for why they are not end-to-end metrics.
    result.Add("setup_s", Median(setups), "s");
    result.Add("cpu_us_per_q", f.cpu_us_per_q, "us");
    result.Add("index_mb", index_mb, "MB");
    result.Add("rss_mb", rss_mb, "MiB");
    return result;
  }

  Tracer tracer;
  std::map<std::string, double> layers;
  bool ok = true;
  ReplayLayers(*served, w.replay(), tracer, &layers, &ok);
  if (!ok) result.Incorrect("layer replay answered wrongly");
  if (w.layers) w.layers(*served, tracer, &layers, &result);
  layers["tcp.overhead_us"] = f.latency.p50_us - layers["stack.submit_us"];
  layers["tcp.bytes_per_q"] = f.bytes_per_q;
  layers["cache.hit_ratio"] = f.hit_ratio();
  layers["cache.evictions_per_kq"] = f.evictions_per_kq();
  layers["build.s"] = Median(builds);
  layers["build.index_mb"] = static_cast<double>(served->build.index_bytes) / 1e6;
  AddLayers(&result, layers);
  tracer.PrintSummary();
  tracer.Write(options.out_dir + "/trace-" + options.workload + ".tsv");
  return result;
}

}  // namespace perfbench
