#include "server/server_stack.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <future>
#include <stdexcept>
#include <utility>

#include "graph/weight_update.h"
#include "util/timer.h"

namespace ah::server {

namespace {

/// Appends " key=value" (no leading space for the first pair).
void AppendKv(std::string* out, std::string_view key, std::string value) {
  if (!out->empty()) out->push_back(' ');
  out->append(key);
  out->push_back('=');
  out->append(value);
}

std::string Fixed(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

/// Whether an admitted request runs on the calling thread instead of the
/// engine queue: a point distance on a backend that answers it far below
/// the cost of the queue hop it skips. `hl` answers in about 0.8 us
/// (perfbench hot-hl, search.dist_us) against a hop of 7-9 us
/// (engine.queue_wait_us). No measurement of `ch` or `ah` point distances
/// exists to set a bound from, so they keep the queue, as do the searching
/// backends, paths, batches, k-nearest and matrices: a slow request never
/// holds up the front-end thread.
bool RunsInline(const Request& request, const IndexEpoch& epoch) {
  return request.kind == RequestKind::kDistance && epoch.backend == "hl";
}

/// Below this many cache-missed pairs a multi-pair request stays on the
/// worker's own session; at or above it, the engine's batch fan-out (idle
/// pool threads joining this worker) outweighs the cost of waking helpers
/// and leasing a session for each.
constexpr std::size_t kParallelMissThreshold = 64;

std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out.append(", ");
    out.append(name);
  }
  return out;
}

Reply ErrorReply(ErrorCode code, std::string detail) {
  Reply reply;
  reply.ok = false;
  reply.code = code;
  reply.detail = std::move(detail);
  return reply;
}

Reply OkReply(RequestKind kind) {
  Reply reply;
  reply.kind = kind;
  return reply;
}

}  // namespace

ServerStack::ServerStack(std::shared_ptr<IndexRegistry> registry,
                         const ServerConfig& config)
    : config_(config),
      registry_(std::move(registry)),
      engine_(registry_, config.num_threads),
      cache_(config.cache_capacity, config.cache_shards, config.cache_ttl),
      admission_(AdmissionConfig{config.admission_capacity,
                                 config.request_timeout,
                                 config.admission_per_client}) {}

ServerStack::ServerStack(std::unique_ptr<DistanceOracle> oracle,
                         const ServerConfig& config)
    : ServerStack(IndexRegistry::AdoptStatic(std::move(oracle)), config) {}

ServerStack::~ServerStack() { WaitIdle(); }

void ServerStack::Submit(std::string_view line,
                         std::optional<std::uint64_t> client,
                         ReplyCallback done) {
  wire_.v1_requests.fetch_add(1, std::memory_order_relaxed);
  ParseResult parsed = ParseRequest(line, Limits());
  SubmitParsed(std::move(parsed), client,
               [done = std::move(done)](Reply reply) {
                 const bool close = reply.close;
                 done(FormatReply(reply), close);
               });
}

void ServerStack::SubmitDecoded(ParseResult parsed, std::uint64_t client_id,
                                StructuredCallback done) {
  wire_.v2_requests.fetch_add(1, std::memory_order_relaxed);
  SubmitParsed(std::move(parsed), client_id, std::move(done));
}

void ServerStack::SubmitParsed(ParseResult parsed,
                               std::optional<std::uint64_t> client,
                               StructuredCallback done) {
  if (!parsed.ok) {
    stats_.RecordError();
    done(ErrorReply(parsed.code, std::move(parsed.message)));
    return;
  }
  Request& req = parsed.request;

  switch (req.kind) {
    case RequestKind::kQuit: {
      Reply reply = OkReply(RequestKind::kQuit);
      reply.close = true;
      done(std::move(reply));
      return;
    }
    case RequestKind::kStats: {
      Reply reply = OkReply(RequestKind::kStats);
      reply.text = StatsLine();
      done(std::move(reply));
      return;
    }
    case RequestKind::kInvalidate:
      cache_.Clear();
      done(OkReply(RequestKind::kInvalidate));
      return;
    case RequestKind::kUse:
    case RequestKind::kUpdate:
    case RequestKind::kUpdateFile:
    case RequestKind::kReload:
      done(ExecuteAdmin(req));
      return;
    default:
      break;
  }

  // Resolve the backend now so an unknown "@..." name is answered inline
  // (and so the cache fast path knows the backend id + generation to match).
  const EpochHandle epoch = registry_->Current(req.backend);
  if (!epoch) {
    stats_.RecordError();
    done(ErrorReply(ErrorCode::kBadBackend,
                    "unknown backend '" + req.backend + "' (serving: " +
                        JoinNames(registry_->Backends()) + ")"));
    return;
  }

  // Cache-hit fast path: distance and path answers are served inline on the
  // front-end thread, skipping admission and the engine entirely.
  if (req.kind == RequestKind::kDistance || req.kind == RequestKind::kPath) {
    Timer timer;
    const bool is_distance = req.kind == RequestKind::kDistance;
    const CacheKey key{req.s, req.t,
                       is_distance ? CachedKind::kDistance : CachedKind::kPath,
                       epoch->backend_id};
    CachedResult hit;
    if (cache_.Lookup(key, epoch->generation, &hit)) {
      Reply reply = OkReply(req.kind);
      if (is_distance) {
        reply.dist = hit.dist;
      } else {
        reply.path.length = hit.dist;
        reply.path.nodes = std::move(hit.nodes);
      }
      stats_.RecordOk(
          is_distance ? RequestClass::kDistance : RequestClass::kPath,
          timer.Micros());
      done(std::move(reply));
      return;
    }
  }

  if (!admission_.TryAdmit(client)) {
    done(ErrorReply(ErrorCode::kOverload,
                    "server at capacity (" +
                        std::to_string(admission_.Capacity()) +
                        " in flight), retry later"));
    return;
  }
  // A cheap request runs here, on the front-end thread: the queue hop and
  // its wake-ups would cost more than the search itself.
  if (RunsInline(req, *epoch)) {
    done(LeaseAndExecute(req, epoch->backend));
    admission_.Release(client);
    return;
  }
  const AdmissionController::Deadline deadline = admission_.MakeDeadline();
  engine_.SubmitAsync([this, request = std::move(req), deadline, client,
                       done = std::move(done)]() mutable {
    Reply reply;
    if (AdmissionController::Expired(deadline)) {
      admission_.CountExpired();
      reply = ErrorReply(ErrorCode::kTimeout,
                         "deadline expired before execution");
    } else {
      // The lease pins whatever epoch is current at execution time — a swap
      // landing between submit and execution simply answers from the fresh
      // index, and the cache insert is tagged with that generation.
      reply = LeaseAndExecute(request, request.backend);
    }
    done(std::move(reply));
    // Release after the reply is delivered so WaitIdle() implies every
    // callback has finished — front-ends rely on that during teardown.
    admission_.Release(client);
  });
}

std::string ServerStack::HandleLine(std::string_view line, bool* close) {
  std::promise<std::pair<std::string, bool>> promise;
  std::future<std::pair<std::string, bool>> future = promise.get_future();
  Submit(line, std::nullopt, [&promise](std::string reply, bool do_close) {
    promise.set_value({std::move(reply), do_close});
  });
  auto [reply, do_close] = future.get();
  if (close != nullptr) *close = do_close;
  return reply;
}

void ServerStack::WaitIdle() { admission_.WaitIdle(); }

std::string ServerStack::Greeting() const {
  return server::Greeting(registry_->NumNodes(), registry_->NumArcs());
}

void ServerStack::SetPois(std::vector<NodeId> pois) {
  pois_ = std::move(pois);
}

Reply ServerStack::ExecuteAdmin(const Request& request) {
  switch (request.kind) {
    case RequestKind::kUse: {
      if (!registry_->SetDefaultBackend(request.backend)) {
        stats_.RecordError();
        return ErrorReply(ErrorCode::kBadBackend,
                          "unknown backend '" + request.backend +
                              "' (serving: " +
                              JoinNames(registry_->Backends()) + ")");
      }
      Reply reply = OkReply(RequestKind::kUse);
      reply.text = request.backend;
      return reply;
    }
    case RequestKind::kUpdate:
      switch (registry_->QueueWeightUpdate(request.s, request.t,
                                           request.weight)) {
        case IndexRegistry::UpdateStatus::kQueued: {
          Reply reply = OkReply(RequestKind::kUpdate);
          reply.value = registry_->PendingUpdates();
          return reply;
        }
        case IndexRegistry::UpdateStatus::kNoSuchArc:
          stats_.RecordError();
          return ErrorReply(ErrorCode::kBadArc,
                            "no arc " + std::to_string(request.s) + "->" +
                                std::to_string(request.t) +
                                " in the base graph");
        case IndexRegistry::UpdateStatus::kBadNode:
          stats_.RecordError();
          return ErrorReply(ErrorCode::kBadNode, "endpoint out of range");
        case IndexRegistry::UpdateStatus::kBadWeight:
          stats_.RecordError();
          return ErrorReply(ErrorCode::kBadRequest,
                            "weight must be positive and below " +
                                std::to_string(kMaxWeight));
        case IndexRegistry::UpdateStatus::kStatic:
          stats_.RecordError();
          return ErrorReply(
              ErrorCode::kBadRequest,
              "this server wraps a static index (no live updates)");
      }
      stats_.RecordError();
      return ErrorReply(ErrorCode::kInternal, "unhandled update status");
    case RequestKind::kUpdateFile: {
      std::ifstream in(request.path, std::ios::binary);
      if (!in) {
        stats_.RecordError();
        return ErrorReply(ErrorCode::kBadRequest,
                          "cannot open delta file '" + request.path + "'");
      }
      std::vector<WeightDelta> deltas;
      try {
        deltas = LoadWeightDeltas(in, config_.max_bulk_deltas);
      } catch (const std::length_error& e) {
        stats_.RecordError();
        return ErrorReply(ErrorCode::kTooLarge, e.what());
      } catch (const std::exception& e) {
        stats_.RecordError();
        return ErrorReply(ErrorCode::kBadRequest,
                          "corrupt delta file '" + request.path +
                              "': " + e.what());
      }
      std::size_t first_bad = 0;
      const auto BadRecord = [&](ErrorCode code, std::string_view what) {
        stats_.RecordError();
        const WeightDelta& d = deltas[first_bad];
        return ErrorReply(
            code, "record " + std::to_string(first_bad) + " (" +
                      std::to_string(d.tail) + "->" + std::to_string(d.head) +
                      " w=" + std::to_string(d.weight) + "): " +
                      std::string(what) + "; no records queued");
      };
      switch (registry_->QueueWeightUpdates(deltas, &first_bad)) {
        case IndexRegistry::UpdateStatus::kQueued: {
          Reply reply = OkReply(RequestKind::kUpdateFile);
          reply.value = deltas.size();
          reply.value2 = registry_->PendingUpdates();
          return reply;
        }
        case IndexRegistry::UpdateStatus::kNoSuchArc:
          return BadRecord(ErrorCode::kBadArc,
                           "no such arc in the base graph");
        case IndexRegistry::UpdateStatus::kBadNode:
          return BadRecord(ErrorCode::kBadNode, "endpoint out of range");
        case IndexRegistry::UpdateStatus::kBadWeight:
          return BadRecord(ErrorCode::kBadRequest,
                           "weight must be positive and below " +
                               std::to_string(kMaxWeight));
        case IndexRegistry::UpdateStatus::kStatic:
          stats_.RecordError();
          return ErrorReply(
              ErrorCode::kBadRequest,
              "this server wraps a static index (no live updates)");
      }
      stats_.RecordError();
      return ErrorReply(ErrorCode::kInternal, "unhandled update status");
    }
    case RequestKind::kReload: {
      const std::size_t pending = registry_->PendingUpdates();
      std::string error;
      if (!registry_->RequestReload(&error)) {
        stats_.RecordError();
        return ErrorReply(ErrorCode::kBadRequest, std::move(error));
      }
      Reply reply = OkReply(RequestKind::kReload);
      reply.value = pending;
      return reply;
    }
    default:
      stats_.RecordError();
      return ErrorReply(ErrorCode::kInternal, "not an admin request");
  }
}

Reply ServerStack::LeaseAndExecute(const Request& request,
                                   std::string_view backend) {
  try {
    ConcurrentEngine::SessionLease lease = engine_.Lease(backend);
    return Execute(request, lease);
  } catch (const std::exception& e) {
    stats_.RecordError();
    return ErrorReply(ErrorCode::kInternal, e.what());
  }
}

Reply ServerStack::Execute(const Request& request,
                           ConcurrentEngine::SessionLease& lease) {
  try {
    switch (request.kind) {
      case RequestKind::kDistance:
        return ExecuteDistance(request.s, request.t, lease);
      case RequestKind::kPath:
        return ExecutePath(request.s, request.t, lease);
      case RequestKind::kKNearest:
        return ExecuteKNearest(request.s, request.k, lease);
      case RequestKind::kBatch:
        return ExecuteBatch(request.pairs, lease);
      case RequestKind::kMatrix:
        return ExecuteMatrix(request.sources, request.targets, lease);
      default:
        stats_.RecordError();
        return ErrorReply(ErrorCode::kInternal, "unexecutable request kind");
    }
  } catch (const std::exception& e) {
    stats_.RecordError();
    return ErrorReply(ErrorCode::kInternal, e.what());
  } catch (...) {
    stats_.RecordError();
    return ErrorReply(ErrorCode::kInternal, "unknown failure");
  }
}

Reply ServerStack::ExecuteDistance(NodeId s, NodeId t,
                                   ConcurrentEngine::SessionLease& lease) {
  Timer timer;
  const Dist d = lease->Distance(s, t);
  cache_.Insert(CacheKey{s, t, CachedKind::kDistance, lease.epoch().backend_id},
                lease.epoch().generation, CachedResult{d, {}});
  stats_.RecordOk(RequestClass::kDistance, timer.Micros());
  Reply reply = OkReply(RequestKind::kDistance);
  reply.dist = d;
  return reply;
}

Reply ServerStack::ExecutePath(NodeId s, NodeId t,
                               ConcurrentEngine::SessionLease& lease) {
  Timer timer;
  PathResult path = lease->ShortestPath(s, t);
  cache_.Insert(CacheKey{s, t, CachedKind::kPath, lease.epoch().backend_id},
                lease.epoch().generation, CachedResult{path.length, path.nodes});
  stats_.RecordOk(RequestClass::kPath, timer.Micros());
  Reply reply = OkReply(RequestKind::kPath);
  reply.path = std::move(path);
  return reply;
}

std::vector<Dist> ServerStack::CachedDistances(
    const std::vector<std::pair<NodeId, NodeId>>& pairs,
    ConcurrentEngine::SessionLease& lease) {
  const std::uint32_t backend_id = lease.epoch().backend_id;
  const std::uint64_t generation = lease.epoch().generation;
  std::vector<Dist> dists(pairs.size(), kInfDist);
  std::vector<std::size_t> miss_index;
  std::vector<QueryPair> miss_pairs;
  if (cache_.Enabled()) {
    // Bulk probe: one shard lock per shard for the whole batch, not one
    // per pair — on a warm batch the mutex round trips would otherwise
    // rival the lookups themselves.
    std::vector<CacheKey> keys;
    keys.reserve(pairs.size());
    for (const auto& [s, t] : pairs) {
      keys.push_back(CacheKey{s, t, CachedKind::kDistance, backend_id});
    }
    std::vector<CachedResult> cached(pairs.size());
    std::vector<char> hit(pairs.size(), 0);
    cache_.LookupMany(keys, generation, &cached, &hit);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (hit[i] != 0) {
        dists[i] = cached[i].dist;
      } else {
        miss_index.push_back(i);
        miss_pairs.push_back(pairs[i]);
      }
    }
  } else {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      miss_index.push_back(i);
      miss_pairs.push_back(pairs[i]);
    }
  }
  if (miss_pairs.empty()) return dists;
  // Few misses: answer on this worker's own session. Many: fan out across
  // the engine's worker threads so one big batch request does not pin a
  // single async worker for its whole duration. (The fan-out leases
  // current-epoch sessions; a swap racing a big batch may answer some pairs
  // from the fresh epoch — each pair is still exact on one of the two.)
  std::vector<Dist> computed;
  bool insertable = true;
  if (miss_pairs.size() >= kParallelMissThreshold) {
    computed = engine_.BatchDistance(miss_pairs, 0, lease.epoch().backend);
    // Only cache the fan-out's answers if no swap landed: generations are
    // monotone, so an unchanged generation read *after* the batch proves
    // the batch leased this same epoch. Otherwise the values may belong to
    // the fresh epoch and tagging them with the stale lease's generation
    // would poison readers still pinned to it.
    insertable = engine_.registry().Generation(lease.epoch().backend) ==
                 generation;
  } else {
    computed.reserve(miss_pairs.size());
    for (const auto& [s, t] : miss_pairs) {
      computed.push_back(lease->Distance(s, t));
    }
  }
  for (std::size_t j = 0; j < miss_pairs.size(); ++j) {
    dists[miss_index[j]] = computed[j];
    if (insertable) {
      cache_.Insert(CacheKey{miss_pairs[j].first, miss_pairs[j].second,
                             CachedKind::kDistance, backend_id},
                    generation, CachedResult{computed[j], {}});
    }
  }
  return dists;
}

Reply ServerStack::ExecuteKNearest(NodeId s, std::uint32_t k,
                                   ConcurrentEngine::SessionLease& lease) {
  if (pois_.empty()) {
    stats_.RecordError();
    return ErrorReply(ErrorCode::kBadRequest,
                      "no POI set configured on this server");
  }
  Timer timer;
  // One distance per POI, each answered through the shared result cache so
  // a popular origin warms every later k-nearest from it.
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(pois_.size());
  for (const NodeId poi : pois_) pairs.emplace_back(s, poi);
  const std::vector<Dist> dists = CachedDistances(pairs, lease);
  std::vector<std::pair<Dist, NodeId>> reachable;
  reachable.reserve(pois_.size());
  for (std::size_t i = 0; i < pois_.size(); ++i) {
    if (dists[i] != kInfDist) reachable.emplace_back(dists[i], pois_[i]);
  }
  const std::size_t take = std::min<std::size_t>(k, reachable.size());
  // Explicit (distance, node id) order: equidistant POIs must rank the same
  // on every backend and every run, or the result cache and cross-backend
  // conformance checks would see spurious diffs.
  std::partial_sort(reachable.begin(), reachable.begin() + take,
                    reachable.end(),
                    [](const std::pair<Dist, NodeId>& a,
                       const std::pair<Dist, NodeId>& b) {
                      if (a.first != b.first) return a.first < b.first;
                      return a.second < b.second;
                    });
  reachable.resize(take);
  stats_.RecordOk(RequestClass::kKNearest, timer.Micros());
  Reply reply = OkReply(RequestKind::kKNearest);
  reply.nearest = std::move(reachable);
  return reply;
}

Reply ServerStack::ExecuteBatch(
    const std::vector<std::pair<NodeId, NodeId>>& pairs,
    ConcurrentEngine::SessionLease& lease) {
  Timer timer;
  std::vector<Dist> dists = CachedDistances(pairs, lease);
  stats_.RecordOk(RequestClass::kBatch, timer.Micros());
  Reply reply = OkReply(RequestKind::kBatch);
  reply.dists = std::move(dists);
  return reply;
}

Reply ServerStack::ExecuteMatrix(const std::vector<NodeId>& sources,
                                 const std::vector<NodeId>& targets,
                                 ConcurrentEngine::SessionLease& lease) {
  Timer timer;
  // Matrices bypass the result cache in both directions: the bucket engine
  // answers all N*M cells on the lease's pinned epoch, and inserting them
  // would only evict hot point entries.
  std::vector<Dist> cells = lease.epoch().oracle->DistanceMatrix(
      sources, targets, engine_.NumThreads());
  stats_.RecordOk(RequestClass::kMatrix, timer.Micros());
  Reply reply = OkReply(RequestKind::kMatrix);
  reply.num_sources = sources.size();
  reply.num_targets = targets.size();
  reply.dists = std::move(cells);
  return reply;
}

std::string ServerStack::StatsLine() const {
  const CacheStats cache = cache_.Totals();
  const AdmissionStats admission = admission_.Totals();
  const IndexRegistry::RegistryStats registry = registry_->GetStats();
  std::string out;
  AppendKv(&out, "v", std::to_string(kProtocolVersion));
  AppendKv(&out, "uptime_s", Fixed(stats_.UptimeSeconds(), 1));
  AppendKv(&out, "served", std::to_string(stats_.OkCount()));
  AppendKv(&out, "errors", std::to_string(stats_.ErrorCount()));
  AppendKv(&out, "shed", std::to_string(admission.shed));
  AppendKv(&out, "expired", std::to_string(admission.expired));
  AppendKv(&out, "qps", Fixed(stats_.Qps(), 1));
  AppendKv(&out, "in_flight", std::to_string(admission_.InFlight()));
  AppendKv(&out, "queue_depth", std::to_string(engine_.AsyncQueueDepth()));
  AppendKv(&out, "v1_requests",
           std::to_string(wire_.v1_requests.load(std::memory_order_relaxed)));
  AppendKv(&out, "v2_requests",
           std::to_string(wire_.v2_requests.load(std::memory_order_relaxed)));
  AppendKv(&out, "bytes_in",
           std::to_string(wire_.bytes_in.load(std::memory_order_relaxed)));
  AppendKv(&out, "bytes_out",
           std::to_string(wire_.bytes_out.load(std::memory_order_relaxed)));
  AppendKv(&out, "backend", registry_->DefaultBackend());
  for (const std::string& name : registry_->Backends()) {
    AppendKv(&out, "epoch_" + name,
             std::to_string(registry_->Generation(name)));
  }
  AppendKv(&out, "pending_updates", std::to_string(registry.pending_updates));
  AppendKv(&out, "updates_applied", std::to_string(registry.updates_applied));
  AppendKv(&out, "reloads", std::to_string(registry.reloads));
  AppendKv(&out, "swaps", std::to_string(registry.swaps));
  AppendKv(&out, "rebuild_in_flight",
           registry.rebuild_in_flight ? "1" : "0");
  // Per-backend rebuild ledger: how many swaps took the cheap frozen-order
  // path vs a from-scratch build, how often incremental fell back, and the
  // wall-clock of the last publication (empty for static registries).
  if (!registry.backend_rebuilds.empty()) {
    const std::vector<std::string>& names = registry_->Backends();
    for (std::size_t i = 0;
         i < names.size() && i < registry.backend_rebuilds.size(); ++i) {
      const IndexRegistry::BackendRebuildStats& rb =
          registry.backend_rebuilds[i];
      AppendKv(&out, "rebuild_" + names[i] + "_incremental",
               std::to_string(rb.incremental));
      AppendKv(&out, "rebuild_" + names[i] + "_full",
               std::to_string(rb.full));
      AppendKv(&out, "rebuild_" + names[i] + "_fallbacks",
               std::to_string(rb.fallbacks));
      AppendKv(&out, "rebuild_" + names[i] + "_last_s",
               Fixed(rb.last_rebuild_seconds, 3));
    }
  }
  AppendKv(&out, "cache_size", std::to_string(cache_.Size()));
  AppendKv(&out, "cache_hits", std::to_string(cache.hits));
  AppendKv(&out, "cache_misses", std::to_string(cache.misses));
  AppendKv(&out, "cache_hit_rate", Fixed(cache.HitRate(), 3));
  AppendKv(&out, "cache_evictions", std::to_string(cache.evictions));
  AppendKv(&out, "cache_invalidations", std::to_string(cache.invalidations));
  AppendKv(&out, "cache_expirations", std::to_string(cache.expirations));
  AppendKv(&out, "cache_clears", std::to_string(cache.clears));
  for (std::size_t c = 0; c < kNumRequestClasses; ++c) {
    const auto request_class = static_cast<RequestClass>(c);
    const LatencyHistogram& hist = stats_.Histogram(request_class);
    const std::string prefix(RequestClassName(request_class));
    AppendKv(&out, prefix + "_count", std::to_string(hist.Count()));
    AppendKv(&out, prefix + "_p50_us", Fixed(hist.Quantile(0.5), 3));
    AppendKv(&out, prefix + "_p99_us", Fixed(hist.Quantile(0.99), 3));
  }
  return out;
}

}  // namespace ah::server
