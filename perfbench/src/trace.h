// Spans for the traced mode: (name, thread, start, end, parent span,
// request id), recorded around the benchmark's own calls into each layer,
// kept in memory and written out when the run ends. A span's self time is
// its duration minus the durations of its child spans.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "recorder.h"

namespace perfbench {

struct Span {
  std::uint32_t name = 0;
  std::uint32_t parent = 0;  // index into the same buffer, or kNoParent
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

inline constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

/// One recording thread's spans. Not thread-safe: a buffer is written by
/// one thread at a time (a job running on an engine worker writes into the
/// buffer of the thread that waits for it).
class SpanBuffer {
 public:
  explicit SpanBuffer(std::uint32_t thread) : thread_(thread) {}

  std::uint32_t Open(std::uint32_t name, std::uint32_t parent,
                     std::uint64_t request) {
    spans_.push_back(Span{name, parent, request, NowNs(), 0});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  void Close(std::uint32_t index) { spans_[index].end_ns = NowNs(); }

  std::uint32_t Add(std::uint32_t name, std::uint32_t parent,
                    std::uint64_t request, std::int64_t start_ns,
                    std::int64_t end_ns) {
    spans_.push_back(Span{name, parent, request, start_ns, end_ns});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }

  std::uint32_t thread() const { return thread_; }
  const std::vector<Span>& spans() const { return spans_; }
  void Reserve(std::size_t n) { spans_.reserve(n); }

 private:
  std::uint32_t thread_;
  std::vector<Span> spans_;
};

class Tracer {
 public:
  /// Dense id for a span name (register names before recording).
  std::uint32_t Name(const std::string& name);

  /// A fresh buffer for one recording thread; stable address.
  SpanBuffer& NewBuffer();

  /// Prints, per span name, the count and the median duration and self
  /// time (duration minus the child spans' durations) in µs.
  void PrintSummary() const;

  /// Median duration of the named spans in µs (0 when none were recorded).
  double MedianUs(const std::string& name) const;

  /// Writes every span as a tab-separated line; false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::deque<SpanBuffer> buffers_;
};

}  // namespace perfbench
