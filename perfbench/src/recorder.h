// Latency recorder: per-request nanosecond samples (no bucketing), answers
// counted per fixed window of the timed phase, and the quantile summary
// every run prints.
#pragma once

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

inline double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/// The timed phase of one closed loop: [start_ns, start_ns + windows *
/// window_ns). Requests sent inside it are sampled; answers completed
/// inside it are counted in their window.
struct Phase {
  std::int64_t start_ns = 0;
  std::int64_t window_ns = 1'000'000'000;
  std::size_t windows = 1;

  std::int64_t end_ns() const {
    return start_ns + window_ns * static_cast<std::int64_t>(windows);
  }
};

/// What one client connection measured in the timed phase.
class LoopRecord {
 public:
  /// Room for `capacity` samples, touched up front so the harness's own
  /// footprint in rss_mb does not grow with throughput. Samples past the
  /// capacity are counted as dropped.
  void Reset(const Phase& phase, std::size_t capacity) {
    latency_ns_.assign(capacity, 0);
    count_ = 0;
    dropped_ = 0;
    next_window_ = 0;
    window_begin_.assign(phase.windows, 0);
    window_answers_.assign(phase.windows, 0);
    cpu_marks_.assign(phase.windows + 1, 0);
    marked_ = 0;
  }

  /// Called by the recording thread before each request: at every window
  /// edge passed since the last call it reads its own thread CPU clock, so
  /// the load generator's CPU is known per window.
  void Tick(const Phase& phase, std::int64_t now_ns) {
    const std::size_t edges =
        now_ns < phase.start_ns
            ? 0
            : std::min<std::size_t>(
                  phase.windows + 1,
                  static_cast<std::size_t>((now_ns - phase.start_ns) /
                                           phase.window_ns) + 1);
    if (edges <= marked_) return;
    const double cpu = ThreadCpuSeconds();
    while (marked_ < edges) cpu_marks_[marked_++] = cpu;
  }

  /// A request sent at `sent_ns`, answered (reply parsed) at `done_ns`,
  /// carrying `answers` answers. Latency is filed under the window the
  /// request was sent in, answers under the window they completed in.
  void Record(const Phase& phase, std::int64_t sent_ns, std::int64_t done_ns,
              std::uint64_t answers) {
    if (sent_ns < phase.start_ns || sent_ns >= phase.end_ns()) return;
    const auto w =
        static_cast<std::size_t>((sent_ns - phase.start_ns) / phase.window_ns);
    while (next_window_ <= w) window_begin_[next_window_++] = count_;
    if (count_ < latency_ns_.size()) {
      latency_ns_[count_++] = static_cast<std::uint32_t>(std::min<std::int64_t>(
          done_ns - sent_ns, std::numeric_limits<std::uint32_t>::max()));
    } else {
      ++dropped_;
    }
    if (done_ns < phase.end_ns()) {
      window_answers_[static_cast<std::size_t>((done_ns - phase.start_ns) /
                                               phase.window_ns)] += answers;
    }
  }

  /// Latency samples of requests sent in windows [first, last).
  void AppendSamples(std::size_t first, std::size_t last,
                     std::vector<std::uint64_t>* out) const {
    const std::size_t begin = Begin(first);
    const std::size_t end = last < window_begin_.size() ? Begin(last) : count_;
    out->insert(out->end(), latency_ns_.begin() + static_cast<std::ptrdiff_t>(begin),
                latency_ns_.begin() + static_cast<std::ptrdiff_t>(end));
  }

  std::uint64_t window_answers(std::size_t w) const { return window_answers_[w]; }
  /// The recording thread's own CPU seconds inside window w.
  double window_cpu(std::size_t w) const {
    return cpu_marks_[w + 1] - cpu_marks_[w];
  }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::size_t Begin(std::size_t w) const {
    return w < next_window_ ? window_begin_[w] : count_;
  }

  std::vector<std::uint32_t> latency_ns_;
  std::size_t count_ = 0;
  std::uint64_t dropped_ = 0;
  std::size_t next_window_ = 0;
  std::vector<std::size_t> window_begin_;  // first sample sent in window w
  std::vector<std::uint64_t> window_answers_;
  std::vector<double> cpu_marks_;  // thread CPU at each window edge
  std::size_t marked_ = 0;
};

/// Nearest-rank quantile of sorted samples, q in [0, 1].
inline std::uint64_t Quantile(const std::vector<std::uint64_t>& sorted,
                              double q) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(rank == 0 ? 0 : rank - 1, sorted.size() - 1)];
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct LatencySummary {
  std::size_t samples = 0;
  double p50_us = 0;
  double p99_us = 0;
  /// The highest of p99, p99.9, p99.99, ... with at least ten samples
  /// beyond it ("" when there are fewer than 1,000 samples).
  std::string tail_label;
  double tail_us = 0;
};

inline LatencySummary Summarize(std::vector<std::uint64_t> ns) {
  LatencySummary s;
  std::sort(ns.begin(), ns.end());
  s.samples = ns.size();
  s.p50_us = Quantile(ns, 0.5) / 1e3;
  s.p99_us = Quantile(ns, 0.99) / 1e3;
  const char* labels[] = {"p99", "p99.9", "p99.99", "p99.999"};
  double beyond = 0.01;
  for (const char* label : labels) {
    if (static_cast<double>(ns.size()) * beyond < 10) break;
    s.tail_label = label;
    s.tail_us = Quantile(ns, 1 - beyond) / 1e3;
    beyond /= 10;
  }
  return s;
}

}  // namespace perfbench
