#include "server/request_stats.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace ah::server {

std::size_t LatencyHistogram::BucketIndex(std::uint64_t v) {
  if (v < kSub) return static_cast<std::size_t>(v);
  const int msb = std::bit_width(v) - 1;  // >= kSubBits
  const int shift = msb - kSubBits;
  const std::size_t group = static_cast<std::size_t>(shift + 1);
  const std::size_t sub = static_cast<std::size_t>(v >> shift) & (kSub - 1);
  const std::size_t index = (group << kSubBits) + sub;
  return std::min(index, kNumBuckets - 1);
}

std::uint64_t LatencyHistogram::BucketLowerBound(std::size_t index) {
  if (index < kSub) return index;
  const std::size_t group = index >> kSubBits;  // >= 1
  const std::uint64_t sub = index & (kSub - 1);
  return (kSub + sub) << (group - 1);
}

void LatencyHistogram::Record(double micros) {
  const std::uint64_t v =
      micros <= 0 ? 0 : static_cast<std::uint64_t>(std::llround(micros * 1e3));
  buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    const std::uint64_t n = other.buckets_[i].load(std::memory_order_relaxed);
    if (n != 0) buckets_[i].fetch_add(n, std::memory_order_relaxed);
  }
}

std::uint64_t LatencyHistogram::Count() const {
  std::uint64_t total = 0;
  for (const auto& bucket : buckets_) {
    total += bucket.load(std::memory_order_relaxed);
  }
  return total;
}

double LatencyHistogram::Quantile(double q) const {
  const std::uint64_t total = Count();
  if (total == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest rank: the smallest bucket whose cumulative count reaches
  // ceil(q * total), clamped to [1, total].
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen >= rank) {
      // Report the bucket's inclusive upper edge (exact for the linear
      // buckets below 8ns, ≤12.5% high otherwise).
      const std::uint64_t edge = i + 1 < kNumBuckets
                                     ? BucketLowerBound(i + 1) - 1
                                     : BucketLowerBound(i);
      return static_cast<double>(edge) / 1e3;
    }
  }
  return static_cast<double>(BucketLowerBound(kNumBuckets - 1)) / 1e3;
}

void LatencyHistogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
}

std::string_view RequestClassName(RequestClass c) {
  switch (c) {
    case RequestClass::kDistance: return "d";
    case RequestClass::kPath: return "p";
    case RequestClass::kKNearest: return "k";
    case RequestClass::kBatch: return "b";
    case RequestClass::kMatrix: return "m";
  }
  return "?";
}

void RequestStats::RecordOk(RequestClass c, double micros) {
  ok_total_.fetch_add(1, std::memory_order_relaxed);
  histograms_[static_cast<std::size_t>(c)].Record(micros);
}

void RequestStats::RecordError() {
  errors_.fetch_add(1, std::memory_order_relaxed);
}

double RequestStats::UptimeSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

double RequestStats::Qps() const {
  const double uptime = UptimeSeconds();
  return uptime > 0 ? static_cast<double>(OkCount()) / uptime : 0;
}

}  // namespace ah::server
