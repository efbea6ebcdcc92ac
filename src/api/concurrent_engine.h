// Shared-index query engine over an epoch-versioned IndexRegistry: queries
// from many threads are answered through pooled QuerySessions, each pinned
// to the epoch (graph snapshot + built oracle) it was created over — the
// serving-side counterpart of the index/session split in
// api/distance_oracle.h, now lifecycle-aware (api/index_registry.h).
//
// Three ways in:
//   * Batch: BatchDistance / BatchShortestPath fan a query vector out via
//     util/parallel.h, one leased session per participant; output is
//     identical at any thread count.
//   * Interactive: Lease(backend) hands out an RAII session for a
//     caller-managed thread; Distance/ShortestPath lease internally.
//   * Async: SubmitAsync runs jobs on the process-wide WorkerPool
//     (util/worker_pool.h), at most NumThreads() at once; jobs lease their
//     own sessions. Batch and matrix fan-outs use the same pool threads.
//
// Epoch discipline: a lease holds an EpochHandle, so the index it queries
// cannot be retired mid-query. When the registry swaps a new epoch in, the
// engine's swap listener purges pooled sessions of the retired epoch —
// released leases against the old epoch are dropped rather than pooled, so
// the old index is destroyed as soon as its last in-flight lease returns.
// All public methods are thread-safe.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "api/distance_oracle.h"
#include "api/index_registry.h"
#include "routing/path.h"
#include "util/thread_annotations.h"
#include "util/types.h"
#include "util/worker_pool.h"

namespace ah {

/// One (source, target) batch query.
using QueryPair = std::pair<NodeId, NodeId>;

class ConcurrentEngine {
 public:
  /// Serves the registry's backends. `num_threads` caps batch fan-out and
  /// the async jobs running at once (0 = WorkerThreads()). Throws
  /// std::invalid_argument on a null registry.
  explicit ConcurrentEngine(std::shared_ptr<IndexRegistry> registry,
                            std::size_t num_threads = 0);

  /// Convenience: wraps one externally built oracle in a static
  /// single-backend registry (IndexRegistry::AdoptStatic). The oracle's
  /// graph must outlive the engine. Throws on a null oracle.
  explicit ConcurrentEngine(std::unique_ptr<DistanceOracle> oracle,
                            std::size_t num_threads = 0);

  /// Waits until every job given to SubmitAsync has run. All SessionLeases
  /// must already be gone.
  ~ConcurrentEngine();

  IndexRegistry& registry() const { return *registry_; }
  std::size_t NumThreads() const { return num_threads_; }

  /// RAII lease of a pooled session over one pinned epoch: dereference to
  /// query, inspect epoch() for the backend/generation answered from,
  /// destroy (or move from) to return the session to the pool. A lease
  /// holds a pointer back into the engine and MUST NOT outlive it.
  class SessionLease {
   public:
    SessionLease(SessionLease&& other) noexcept
        : engine_(other.engine_),
          epoch_(std::move(other.epoch_)),
          session_(std::move(other.session_)) {
      other.engine_ = nullptr;
    }
    SessionLease& operator=(SessionLease&&) = delete;
    SessionLease(const SessionLease&) = delete;
    SessionLease& operator=(const SessionLease&) = delete;
    ~SessionLease();

    QuerySession& operator*() const { return *session_; }
    QuerySession* operator->() const { return session_.get(); }

    /// The epoch this session answers from — stable for the lease's
    /// lifetime even if the registry swaps underneath.
    const IndexEpoch& epoch() const { return *epoch_; }

   private:
    friend class ConcurrentEngine;
    SessionLease(ConcurrentEngine* engine, EpochHandle epoch,
                 std::unique_ptr<QuerySession> session)
        : engine_(engine),
          epoch_(std::move(epoch)),
          session_(std::move(session)) {}

    ConcurrentEngine* engine_;
    EpochHandle epoch_;
    std::unique_ptr<QuerySession> session_;
  };

  /// Leases a session over the current epoch of `backend` (empty = the
  /// registry's default backend), reusing a pooled session when one exists
  /// for that epoch. Throws std::invalid_argument on an unknown backend.
  SessionLease Lease(std::string_view backend = {});

  /// One-shot conveniences on the default backend; thread-safe.
  Dist Distance(NodeId s, NodeId t);
  PathResult ShortestPath(NodeId s, NodeId t);

  /// Answers all queries on `backend` (empty = default), fanned across
  /// worker threads; results[i] matches queries[i]. `num_threads` overrides
  /// the engine's fan-out for this call (0 = engine default) — the bench
  /// sweeps it; servers leave it alone. The whole batch is answered from
  /// one epoch (acquired once up front).
  std::vector<Dist> BatchDistance(const std::vector<QueryPair>& queries,
                                  std::size_t num_threads = 0,
                                  std::string_view backend = {});
  std::vector<PathResult> BatchShortestPath(
      const std::vector<QueryPair>& queries, std::size_t num_threads = 0,
      std::string_view backend = {});

  /// One-shot convenience: the row-major |sources| × |targets| matrix on
  /// `backend`'s current epoch (see DistanceOracle::DistanceMatrix).
  /// `num_threads` overrides the engine fan-out for this call (0 = engine
  /// default). Thread-safe.
  std::vector<Dist> DistanceMatrix(std::span<const NodeId> sources,
                                   std::span<const NodeId> targets,
                                   std::size_t num_threads = 0,
                                   std::string_view backend = {}) const;

  /// Callback-style submit for server front-ends: enqueues `fn` to run on
  /// a shared pool thread, at most NumThreads() of this engine's jobs at
  /// once. Jobs start FIFO and lease sessions themselves (so each job picks
  /// up the freshest epoch); `fn` must not throw. The queue is unbounded —
  /// callers wanting load shedding put an admission controller in front
  /// (src/server/admission.h).
  void SubmitAsync(std::function<void()> fn);

  /// Jobs submitted via SubmitAsync that have not yet started executing —
  /// the queue-depth signal admission control and stats export read.
  std::size_t AsyncQueueDepth() const;

 private:
  /// A pooled idle session together with the epoch it was created over.
  struct PooledSession {
    EpochHandle epoch;
    std::unique_ptr<QuerySession> session;
  };

  // results[i] = query(session, s_i, t_i) for every pair, fanned out over
  // `num_threads` participants (0 = NumThreads()).
  template <typename Result, typename Query>
  std::vector<Result> RunBatch(const std::vector<QueryPair>& queries,
                               std::size_t num_threads,
                               std::string_view backend, const Query& query);

  PooledSession Acquire(std::string_view backend) AH_EXCLUDES(mu_);
  void Release(PooledSession entry) AH_EXCLUDES(mu_);
  /// Drops pooled sessions whose epoch is not `fresh` for that backend.
  void PurgeStale(const EpochHandle& fresh) AH_EXCLUDES(mu_);

  std::shared_ptr<IndexRegistry> registry_;
  std::uint64_t swap_listener_token_ = 0;
  std::size_t num_threads_;
  Mutex mu_;
  std::vector<PooledSession> pool_ AH_GUARDED_BY(mu_);
  WorkerPool::JobQueue async_jobs_;
};

}  // namespace ah
