// Serving-side telemetry: a lock-free log-linear latency histogram (the
// p50/p99 type the throughput bench reuses per thread count) and the
// per-request-class counters the stack exports through the `stats` reply.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ah::server {

/// Fixed-footprint latency histogram at nanosecond resolution: 8
/// sub-buckets per power of two (log-linear, ≤ ~12.5% relative bucket
/// width), covering [0, 2^63) ns. Samples go in and quantiles come out in
/// (fractional) microseconds, so a sub-microsecond answer does not read as
/// 0. Record() is a single relaxed atomic increment, so any number of
/// threads may record into one histogram; quantile reads are approximate
/// under concurrent writes (exact once writers are done).
class LatencyHistogram {
 public:
  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  /// Records one sample (negative values clamp to 0). Thread-safe.
  void Record(double micros);

  /// Adds every bucket of `other` into this histogram (per-thread
  /// histograms merge into one before reporting).
  void Merge(const LatencyHistogram& other);

  std::uint64_t Count() const;

  /// Nearest-rank quantile in microseconds, q in [0, 1]; returns the upper
  /// edge of the containing bucket (exact for samples < 8ns). 0 when empty.
  double Quantile(double q) const;

  void Reset();

 private:
  static constexpr int kSubBits = 3;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static constexpr std::size_t kNumBuckets = 62 * kSub;

  static std::size_t BucketIndex(std::uint64_t v);
  /// Smallest value mapping to bucket `index`.
  static std::uint64_t BucketLowerBound(std::size_t index);

  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
};

/// The request classes the stack tracks separately (a batch counts as one
/// request of class kBatch regardless of its size).
enum class RequestClass : std::size_t {
  kDistance = 0,
  kPath = 1,
  kKNearest = 2,
  kBatch = 3,
  kMatrix = 4,
};
inline constexpr std::size_t kNumRequestClasses = 5;
std::string_view RequestClassName(RequestClass c);

/// Thread-safe counters + per-class latency histograms for one serving
/// stack. Shed/timeout counts live in AdmissionController (single source);
/// this layer tracks what was actually answered.
class RequestStats {
 public:
  RequestStats() : start_(std::chrono::steady_clock::now()) {}

  /// One successfully answered request (cache hits included).
  void RecordOk(RequestClass c, double micros);
  /// One request rejected with a parse/validation/internal error.
  void RecordError();

  std::uint64_t OkCount() const {
    return ok_total_.load(std::memory_order_relaxed);
  }
  std::uint64_t ErrorCount() const {
    return errors_.load(std::memory_order_relaxed);
  }
  const LatencyHistogram& Histogram(RequestClass c) const {
    return histograms_[static_cast<std::size_t>(c)];
  }

  double UptimeSeconds() const;
  /// Mean successfully-answered requests/sec since construction.
  double Qps() const;

 private:
  std::chrono::steady_clock::time_point start_;
  std::atomic<std::uint64_t> ok_total_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::array<LatencyHistogram, kNumRequestClasses> histograms_;
};

}  // namespace ah::server
