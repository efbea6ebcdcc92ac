#include "api/concurrent_engine.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/parallel.h"

namespace ah {

ConcurrentEngine::ConcurrentEngine(std::shared_ptr<IndexRegistry> registry,
                                   std::size_t num_threads)
    : registry_(std::move(registry)),
      num_threads_(num_threads == 0 ? WorkerThreads() : num_threads),
      async_jobs_(num_threads_) {
  if (!registry_) {
    throw std::invalid_argument("ConcurrentEngine: null registry");
  }
  swap_listener_token_ = registry_->AddSwapListener(
      [this](const EpochHandle& fresh) { PurgeStale(fresh); });
}

ConcurrentEngine::ConcurrentEngine(std::unique_ptr<DistanceOracle> oracle,
                                   std::size_t num_threads)
    : ConcurrentEngine(IndexRegistry::AdoptStatic(std::move(oracle)),
                       num_threads) {}

ConcurrentEngine::~ConcurrentEngine() {
  registry_->RemoveSwapListener(swap_listener_token_);
  // Every submitted job runs, so a callback-carrying job can always deliver
  // its reply.
  WorkerPool::Shared().Drain(async_jobs_);
}

void ConcurrentEngine::SubmitAsync(std::function<void()> fn) {
  WorkerPool::Shared().Submit(async_jobs_, std::move(fn));
}

std::size_t ConcurrentEngine::AsyncQueueDepth() const {
  return WorkerPool::Shared().Queued(async_jobs_);
}

ConcurrentEngine::SessionLease::~SessionLease() {
  if (engine_ != nullptr && session_ != nullptr) {
    engine_->Release(PooledSession{std::move(epoch_), std::move(session_)});
  }
}

ConcurrentEngine::SessionLease ConcurrentEngine::Lease(
    std::string_view backend) {
  PooledSession entry = Acquire(backend);
  return SessionLease(this, std::move(entry.epoch), std::move(entry.session));
}

Dist ConcurrentEngine::Distance(NodeId s, NodeId t) {
  return Lease()->Distance(s, t);
}

PathResult ConcurrentEngine::ShortestPath(NodeId s, NodeId t) {
  return Lease()->ShortestPath(s, t);
}

template <typename Result, typename Query>
std::vector<Result> ConcurrentEngine::RunBatch(
    const std::vector<QueryPair>& queries, std::size_t num_threads,
    std::string_view backend, const Query& query) {
  std::vector<Result> results(queries.size());
  if (queries.empty()) return results;
  const std::size_t threads = std::min(
      num_threads == 0 ? num_threads_ : num_threads, queries.size());
  // One session per participant, leased at its first chunk. All answer from
  // the epoch acquired up front, so a swap landing mid-batch cannot split
  // the batch across index versions.
  std::vector<PooledSession> sessions(threads);
  sessions[0] = Acquire(backend);
  const EpochHandle& epoch = sessions[0].epoch;
  ParallelFor(queries.size(), threads, [&](std::size_t i, std::size_t tid) {
    PooledSession& mine = sessions[tid];
    if (mine.session == nullptr) {
      mine = Acquire(backend);
      if (mine.epoch != epoch) mine = {epoch, epoch->NewSession()};
    }
    results[i] = query(*mine.session, queries[i].first, queries[i].second);
  });
  for (PooledSession& entry : sessions) Release(std::move(entry));
  return results;
}

std::vector<Dist> ConcurrentEngine::BatchDistance(
    const std::vector<QueryPair>& queries, std::size_t num_threads,
    std::string_view backend) {
  return RunBatch<Dist>(queries, num_threads, backend,
                        [](QuerySession& session, NodeId s, NodeId t) {
                          return session.Distance(s, t);
                        });
}

std::vector<PathResult> ConcurrentEngine::BatchShortestPath(
    const std::vector<QueryPair>& queries, std::size_t num_threads,
    std::string_view backend) {
  return RunBatch<PathResult>(queries, num_threads, backend,
                              [](QuerySession& session, NodeId s, NodeId t) {
                                return session.ShortestPath(s, t);
                              });
}

std::vector<Dist> ConcurrentEngine::DistanceMatrix(
    std::span<const NodeId> sources, std::span<const NodeId> targets,
    std::size_t num_threads, std::string_view backend) const {
  EpochHandle epoch = registry_->Current(backend);
  if (!epoch) {
    throw std::invalid_argument("ConcurrentEngine: unknown backend '" +
                                std::string(backend) + "'");
  }
  return epoch->oracle->DistanceMatrix(
      sources, targets, num_threads == 0 ? num_threads_ : num_threads);
}

ConcurrentEngine::PooledSession ConcurrentEngine::Acquire(
    std::string_view backend) {
  EpochHandle epoch = registry_->Current(backend);
  if (!epoch) {
    throw std::invalid_argument("ConcurrentEngine: unknown backend '" +
                                std::string(backend) + "'");
  }
  {
    MutexLock lock(mu_);
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      if (pool_[i].epoch == epoch) {
        PooledSession entry = std::move(pool_[i]);
        pool_[i] = std::move(pool_.back());
        pool_.pop_back();
        return entry;
      }
    }
  }
  std::unique_ptr<QuerySession> session = epoch->NewSession();
  return PooledSession{std::move(epoch), std::move(session)};
}

void ConcurrentEngine::Release(PooledSession entry) {
  if (entry.session == nullptr) return;
  MutexLock lock(mu_);
  // Pool only sessions over the still-current epoch: a stale session
  // returning from a lease is dropped here, releasing its epoch pin — this
  // (plus PurgeStale on swap) is what retires an old index as soon as its
  // last lease returns. The check runs under the pool lock: PurgeStale (the
  // swap listener) also takes it, so either this push lands before the
  // purge (which then drops it) or the swap is already visible to Current()
  // here — a stale entry can never slip into the pool and linger. Current()
  // only takes the registry's reader lock, which no listener holds, so the
  // nesting cannot deadlock.
  if (registry_->Current(entry.epoch->backend) != entry.epoch) return;
  // Cap the pool at twice the fan-out so a one-time burst of leases does not
  // pin its peak count of graph-sized search-scratch sets forever; sessions
  // beyond the cap are simply destroyed.
  if (pool_.size() < num_threads_ * 2) pool_.push_back(std::move(entry));
}

void ConcurrentEngine::PurgeStale(const EpochHandle& fresh) {
  std::vector<PooledSession> dropped;  // destroyed after the lock releases
  MutexLock lock(mu_);
  for (std::size_t i = 0; i < pool_.size();) {
    if (pool_[i].epoch->backend_id == fresh->backend_id &&
        pool_[i].epoch != fresh) {
      dropped.push_back(std::move(pool_[i]));
      pool_[i] = std::move(pool_.back());
      pool_.pop_back();
    } else {
      ++i;
    }
  }
}

}  // namespace ah
