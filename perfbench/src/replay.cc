#include "replay.h"

#include <atomic>
#include <cstdio>
#include <deque>
#include <optional>
#include <string_view>
#include <thread>

#include "server/admission.h"
#include "server/binary_protocol.h"
#include "server/protocol.h"
#include "wire.h"

namespace perfbench {
namespace {

namespace srv = ah::server;

// The workloads send v1 text for point queries only.
std::string TextLine(const ReplayStream& stream, const ReplayItem& item) {
  return PointLine(stream.kind == ReplayKind::kPath ? 'p' : 'd', item.s,
                   item.t);
}

std::string Frame(const ReplayStream& stream, const ReplayItem& item,
                  std::uint64_t id) {
  switch (stream.kind) {
    case ReplayKind::kPath:
      return PointFrame(Op::kPath, item.s, item.t, id);
    case ReplayKind::kDistance:
      return PointFrame(Op::kDistance, item.s, item.t, id);
    case ReplayKind::kMatrix:
      return MatrixFrame(item.sources, item.targets, id);
  }
  return {};
}

srv::ParseResult Decode(const std::string& frame, const srv::ParseLimits& limits,
                        srv::Opcode* opcode) {
  srv::FrameHeader header;
  std::string_view payload;
  if (srv::TryReadFrame(frame, &header, &payload) == 0) return {};
  *opcode = header.opcode;
  return srv::DecodeRequest(header, payload, limits);
}

void Wait(const std::atomic<int>& done) {
  while (done.load(std::memory_order_acquire) == 0) {
    done.wait(0, std::memory_order_acquire);
  }
}

void Signal(std::atomic<int>& done) {
  done.store(1, std::memory_order_release);
  done.notify_one();
}

}  // namespace

void ReplayLayers(Served& served, const ReplayStream& stream, Tracer& tracer,
                  std::map<std::string, double>* out, bool* ok) {
  srv::ServerStack& stack = *served.stack;
  ah::ConcurrentEngine& engine = stack.engine();
  const srv::ServerConfig defaults;
  const srv::ParseLimits limits = stack.Limits();
  // The workload's matrices exceed matrix_cache_max_cells, so the server
  // answers them without touching the cache; the replay does the same.
  const bool cacheable = stream.kind != ReplayKind::kMatrix;
  const srv::CachedKind cached_kind = stream.kind == ReplayKind::kPath
                                          ? srv::CachedKind::kPath
                                          : srv::CachedKind::kDistance;
  const std::string codec = stream.v2 ? "v2" : "v1";
  const std::string search = stream.kind == ReplayKind::kPath ? "search.path"
                             : stream.kind == ReplayKind::kDistance
                                 ? "search.dist"
                                 : "matrix";
  const std::uint32_t n_bare = tracer.Name("replay.bare");
  const std::uint32_t n_request = tracer.Name("replay.request");
  const std::uint32_t n_parse =
      tracer.Name(stream.v2 ? "v2.decode" : "v1.parse");
  const std::uint32_t n_lookup = tracer.Name("cache.lookup");
  const std::uint32_t n_admit = tracer.Name("admission.admit");
  const std::uint32_t n_queue = tracer.Name("engine.queue_wait");
  const std::uint32_t n_lease = tracer.Name("engine.lease");
  const std::uint32_t n_search = tracer.Name(search);
  const std::uint32_t n_release = tracer.Name("engine.release");
  const std::uint32_t n_insert = tracer.Name("cache.insert");
  const std::uint32_t n_admit_release = tracer.Name("admission.release");
  const std::uint32_t n_format =
      tracer.Name(stream.v2 ? "v2.encode" : "v1.format");
  const std::uint32_t n_submit = tracer.Name("stack.submit");
  const std::uint32_t n_matrix_1t = tracer.Name("matrix.1t");

  std::atomic<bool> all_ok{true};
  std::atomic<std::uint64_t> path_nodes{0};
  std::atomic<std::uint64_t> paths{0};
  std::atomic<std::uint64_t> reply_bytes{0};
  const std::size_t threads = static_cast<std::size_t>(stream.threads);
  const std::vector<ReplayItem>& items = stream.items;

  // One request at a time through every layer. Without `traced`, only the
  // replay.bare span is kept around each request.
  auto staged = [&](std::size_t tid, SpanBuffer& buf, bool traced,
                    srv::ResultCache& cache,
                    srv::AdmissionController& admission) {
    const std::uint64_t client = tid + 1;
    for (std::size_t i = tid; i < items.size(); i += threads) {
      const ReplayItem& item = items[i];
      auto open = [&](std::uint32_t name, std::uint32_t parent) {
        return traced ? buf.Open(name, parent, i) : kNoParent;
      };
      auto close = [&](std::uint32_t span) {
        if (traced) buf.Close(span);
      };
      const std::string wire =
          stream.v2 ? Frame(stream, item, i) : TextLine(stream, item);
      const std::uint32_t parent =
          buf.Open(traced ? n_request : n_bare, kNoParent, i);
      srv::Opcode opcode = srv::Opcode::kDistance;
      std::uint32_t span = open(n_parse, parent);
      const srv::ParseResult parsed = stream.v2
                                          ? Decode(wire, limits, &opcode)
                                          : srv::ParseRequest(wire, limits);
      close(span);
      if (!parsed.ok) {
        all_ok = false;
        buf.Close(parent);
        continue;
      }
      const srv::Request& req = parsed.request;
      srv::Reply reply;
      reply.kind = req.kind;
      const srv::CacheKey key{req.s, req.t, cached_kind, 0};
      srv::CachedResult cached;
      bool hit = false;
      if (cacheable) {
        span = open(n_lookup, parent);
        hit = cache.Lookup(key, 1, &cached);
        close(span);
      }
      if (hit) {
        reply.dist = cached.dist;
        reply.path.length = cached.dist;
        reply.path.nodes = std::move(cached.nodes);
      } else {
        span = open(n_admit, parent);
        const bool admitted = admission.TryAdmit(client);
        close(span);
        if (!admitted) {
          all_ok = false;
          buf.Close(parent);
          continue;
        }
        std::atomic<int> done{0};
        const std::int64_t submit_ns = traced ? NowNs() : 0;
        engine.SubmitAsync([&] {
          if (traced) buf.Add(n_queue, parent, i, submit_ns, NowNs());
          try {
            std::uint32_t s2 = open(n_lease, parent);
            std::optional<ah::ConcurrentEngine::SessionLease> lease(
                engine.Lease());
            close(s2);
            s2 = open(n_search, parent);
            switch (stream.kind) {
              case ReplayKind::kPath:
                reply.path = (*lease)->ShortestPath(req.s, req.t);
                reply.dist = reply.path.length;
                break;
              case ReplayKind::kDistance:
                reply.dist = (*lease)->Distance(req.s, req.t);
                break;
              case ReplayKind::kMatrix:
                reply.dists = lease->epoch().oracle->DistanceMatrix(
                    req.sources, req.targets, engine.NumThreads());
                reply.num_sources = req.sources.size();
                reply.num_targets = req.targets.size();
                break;
            }
            close(s2);
            s2 = open(n_release, parent);
            lease.reset();
            close(s2);
            if (cacheable) {
              s2 = open(n_insert, parent);
              cache.Insert(key, 1,
                           srv::CachedResult{reply.dist, reply.path.nodes});
              close(s2);
            }
          } catch (const std::exception& e) {
            std::fprintf(stderr, "replay: %s\n", e.what());
            all_ok = false;
          }
          Signal(done);
        });
        Wait(done);
        span = open(n_admit_release, parent);
        admission.Release(client);
        close(span);
      }
      span = open(n_format, parent);
      const std::size_t bytes =
          stream.v2 ? srv::EncodeReplyFrame(reply, opcode, i).size()
                    : srv::FormatReply(reply).size();
      close(span);
      buf.Close(parent);
      if (!traced) continue;
      reply_bytes += bytes;
      if (stream.kind != ReplayKind::kMatrix && reply.dist != item.ref) {
        all_ok = false;
      }
      if (stream.kind == ReplayKind::kPath) {
        path_nodes += reply.path.nodes.size();
        ++paths;
      }
    }
  };

  auto submit = [&](std::size_t tid, SpanBuffer& buf) {
    const std::uint64_t client = 1000 + tid;
    for (std::size_t i = tid; i < items.size(); i += threads) {
      const ReplayItem& item = items[i];
      std::atomic<int> done{0};
      if (stream.v2) {
        srv::Opcode opcode;
        srv::ParseResult parsed = Decode(Frame(stream, item, i), limits, &opcode);
        const std::uint32_t span = buf.Open(n_submit, kNoParent, i);
        stack.SubmitDecoded(std::move(parsed), client, [&](srv::Reply reply) {
          if (!reply.ok) all_ok = false;
          Signal(done);
        });
        Wait(done);
        buf.Close(span);
      } else {
        const std::string line = TextLine(stream, item);
        const std::uint32_t span = buf.Open(n_submit, kNoParent, i);
        stack.Submit(line, client, [&](std::string reply, bool) {
          if (reply.rfind("OK", 0) != 0) all_ok = false;
          Signal(done);
        });
        Wait(done);
        buf.Close(span);
      }
    }
  };

  // Pass 0 replays without the layer spans, pass 1 with them; each starts
  // from a harness cache fed the same warm-up, so both see the same hits.
  // Pass 2 goes through the stack. A pass that is not `kept` warms up: its
  // spans are dropped. Returns the pass's wall seconds.
  auto run_pass = [&](int pass, bool kept) {
    srv::ResultCache cache(defaults.cache_capacity, defaults.cache_shards,
                           defaults.cache_ttl);
    srv::AdmissionController admission(srv::AdmissionConfig{
        defaults.admission_capacity, defaults.request_timeout,
        defaults.admission_per_client});
    if (pass < 2) {
      for (const ReplayItem& item : stream.warm) {
        const srv::CacheKey key{item.s, item.t, cached_kind, 0};
        srv::CachedResult hit;
        if (!cache.Lookup(key, 1, &hit)) {
          cache.Insert(key, 1, srv::CachedResult{item.ref, {}});
        }
      }
    }
    std::deque<SpanBuffer> dropped;
    std::vector<SpanBuffer*> buffers;
    for (std::size_t t = 0; t < threads; ++t) {
      buffers.push_back(kept ? &tracer.NewBuffer()
                             : &dropped.emplace_back(static_cast<std::uint32_t>(t)));
      buffers.back()->Reserve(items.size() * (pass == 1 ? 12 : 1) / threads + 16);
    }
    const std::int64_t start = NowNs();
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        if (pass < 2) {
          staged(t, *buffers[t], pass == 1, cache, admission);
        } else {
          submit(t, *buffers[t]);
        }
      });
    }
    for (std::thread& w : workers) w.join();
    return (NowNs() - start) / 1e9;
  };
  run_pass(0, false);
  const double bare_s = run_pass(0, true);
  const double traced_s = run_pass(1, true);
  run_pass(2, true);

  if (stream.kind == ReplayKind::kMatrix) {
    SpanBuffer& buf = tracer.NewBuffer();
    const ah::EpochHandle epoch = engine.registry().Current();
    for (std::size_t i = 0; i < items.size(); ++i) {
      const std::uint32_t span = buf.Open(n_matrix_1t, kNoParent, i);
      reply_bytes +=
          epoch->oracle->DistanceMatrix(items[i].sources, items[i].targets, 1)
              .size();
      buf.Close(span);
    }
    (*out)["matrix.us"] = tracer.MedianUs("matrix");
    (*out)["matrix.1t_us"] = tracer.MedianUs("matrix.1t");
  }

  (*out)[codec + (stream.v2 ? ".decode_us" : ".parse_us")] =
      tracer.MedianUs(stream.v2 ? "v2.decode" : "v1.parse");
  (*out)[codec + (stream.v2 ? ".encode_us" : ".format_us")] =
      tracer.MedianUs(stream.v2 ? "v2.encode" : "v1.format");
  if (cacheable) {
    (*out)["cache.lookup_us"] = tracer.MedianUs("cache.lookup");
    (*out)["cache.insert_us"] = tracer.MedianUs("cache.insert");
  }
  (*out)["admission.admit_us"] =
      tracer.MedianUs("admission.admit") + tracer.MedianUs("admission.release");
  (*out)["engine.queue_wait_us"] = tracer.MedianUs("engine.queue_wait");
  (*out)["engine.lease_us"] =
      tracer.MedianUs("engine.lease") + tracer.MedianUs("engine.release");
  if (stream.kind == ReplayKind::kPath) {
    (*out)["search.path_us"] = tracer.MedianUs("search.path");
    (*out)["search.path_nodes"] =
        paths == 0 ? 0 : static_cast<double>(path_nodes) / paths;
  }
  if (stream.kind == ReplayKind::kDistance) {
    (*out)["search.dist_us"] = tracer.MedianUs("search.dist");
  }
  (*out)["stack.submit_us"] = tracer.MedianUs("stack.submit");
  const double n = static_cast<double>(items.size());
  (*out)["trace.p50_us"] = tracer.MedianUs("replay.request");
  (*out)["trace.qps"] = n / traced_s;
  (*out)["trace.untraced_p50_us"] = tracer.MedianUs("replay.bare");
  (*out)["trace.untraced_qps"] = n / bare_s;
  std::printf("replay: %zu requests on %zu threads, %llu reply bytes; "
              "tracing overhead: p50 %+.1f%%, qps %+.1f%% (layer spans on "
              "vs off)\n",
              items.size(), threads,
              static_cast<unsigned long long>(reply_bytes.load()),
              100.0 * ((*out)["trace.p50_us"] / (*out)["trace.untraced_p50_us"] - 1),
              100.0 * (bare_s / traced_s - 1));
  if (!all_ok) *ok = false;
}

}  // namespace perfbench
