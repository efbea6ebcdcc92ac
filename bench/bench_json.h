// Machine-readable bench output: each bench binary can mirror its table into
// a BENCH_*.json file for the CI perf gate (tools/check_bench_baseline.py).
// Opt-in via the AH_BENCH_JSON env var (a file path); without it, nothing is
// written. One series entry per table cell: a stable "/"-joined name
// (<dataset>/<backend>/<kind>/t<threads>), throughput, latency quantiles,
// and the determinism checksum the gate fails on when it drifts.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "util/types.h"

namespace ah::bench {

class BenchJson {
 public:
  explicit BenchJson(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  /// Adds one series entry. `extras` are additional numeric fields (e.g.
  /// {"speedup_vs_batch", 14.2}).
  void AddSeries(const std::string& name, double qps, double p50_us,
                 double p99_us, Dist checksum,
                 const std::vector<std::pair<std::string, double>>& extras =
                     {}) {
    std::string entry = "    {\"name\": \"" + name + "\"";
    entry += ", \"qps\": " + Num(qps);
    entry += ", \"p50_us\": " + Num(p50_us);
    entry += ", \"p99_us\": " + Num(p99_us);
    entry += ", \"checksum\": " + std::to_string(checksum);
    for (const auto& [key, value] : extras) {
      entry += ", \"" + key + "\": " + Num(value);
    }
    entry += "}";
    series_.push_back(std::move(entry));
  }

  /// Writes the collected series to `path`. Returns false on I/O failure.
  bool WriteFile(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"series\": [\n",
                 bench_name_.c_str());
    for (std::size_t i = 0; i < series_.size(); ++i) {
      std::fprintf(f, "%s%s\n", series_[i].c_str(),
                   i + 1 < series_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    return std::fclose(f) == 0;
  }

  /// Writes to $AH_BENCH_JSON when set; returns false only on I/O failure.
  bool WriteToEnvPath() const {
    const char* path = std::getenv("AH_BENCH_JSON");
    if (path == nullptr || *path == '\0') return true;
    const bool ok = WriteFile(path);
    std::printf("%s bench json to %s\n", ok ? "wrote" : "FAILED to write",
                path);
    return ok;
  }

 private:
  static std::string Num(double v) {
    char buf[64];
    // Significant digits, not fixed decimals: sub-millisecond times in
    // seconds and nanosecond-scale latencies in microseconds keep their
    // precision.
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
  }

  std::string bench_name_;
  std::vector<std::string> series_;
};

}  // namespace ah::bench
