#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

std::uint32_t Tracer::Name(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

SpanBuffer& Tracer::NewBuffer() {
  buffers_.emplace_back(static_cast<std::uint32_t>(buffers_.size()));
  return buffers_.back();
}

void Tracer::PrintSummary() const {
  std::vector<std::vector<std::uint64_t>> dur(names_.size());
  std::vector<std::vector<std::uint64_t>> self(names_.size());
  for (const SpanBuffer& buffer : buffers_) {
    const std::vector<Span>& spans = buffer.spans();
    std::vector<std::uint64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent != kNoParent) {
        child_ns[s.parent] += static_cast<std::uint64_t>(s.end_ns - s.start_ns);
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto d = static_cast<std::uint64_t>(spans[i].end_ns - spans[i].start_ns);
      dur[spans[i].name].push_back(d);
      self[spans[i].name].push_back(d > child_ns[i] ? d - child_ns[i] : 0);
    }
  }
  std::printf("%-20s %9s %12s %12s\n", "span", "count", "p50_us", "self_p50_us");
  for (std::size_t n = 0; n < names_.size(); ++n) {
    if (dur[n].empty()) continue;
    std::sort(dur[n].begin(), dur[n].end());
    std::sort(self[n].begin(), self[n].end());
    std::printf("%-20s %9zu %12.3f %12.3f\n", names_[n].c_str(), dur[n].size(),
                Quantile(dur[n], 0.5) / 1e3, Quantile(self[n], 0.5) / 1e3);
  }
}

double Tracer::MedianUs(const std::string& name) const {
  std::vector<std::uint64_t> dur;
  std::uint32_t id = kNoParent;
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) id = static_cast<std::uint32_t>(i);
  }
  if (id == kNoParent) return 0;
  for (const SpanBuffer& buffer : buffers_) {
    for (const Span& s : buffer.spans()) {
      if (s.name == id) dur.push_back(static_cast<std::uint64_t>(s.end_ns - s.start_ns));
    }
  }
  std::sort(dur.begin(), dur.end());
  return Quantile(dur, 0.5) / 1e3;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name\tthread\tindex\tparent\trequest\tstart_ns\tend_ns\n");
  for (const SpanBuffer& buffer : buffers_) {
    const std::vector<Span>& spans = buffer.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%s\t%u\t%zu\t%ld\t%llu\t%lld\t%lld\n",
                   names_[s.name].c_str(), buffer.thread(), i,
                   s.parent == kNoParent ? -1L : static_cast<long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
