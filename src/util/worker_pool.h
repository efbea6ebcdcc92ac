// The process-wide worker pool: long-lived threads (WorkerThreads() of
// them, more if a JobQueue lets more jobs run) behind every fan-out
// (util/parallel.h) and every async job queue (ConcurrentEngine).
//   * A JobQueue starts its jobs in order, at most `max_running` at a time.
//     Submit costs one lock and one notify.
//   * Fork(k, fn) runs fn(0) on the caller and offers slots 1..k-1 to idle
//     workers. fn claims work from a shared counter, so the caller finishes
//     alone if no helper starts, and a fork from a pool job can neither
//     deadlock nor oversubscribe the pool. The caller waits only for helpers
//     that joined; one starting after the fork closed leaves without
//     touching the caller's stack.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace ah {

/// Number of worker threads to use: AH_THREADS env var if set, else
/// min(hardware_concurrency, cap), at least 1.
std::size_t WorkerThreads(std::size_t cap = 16);

class WorkerPool {
 public:
  /// The shared pool; never destroyed, so its threads outlive statics.
  static WorkerPool& Shared();

  /// An ordered stream of jobs with a cap on how many run at once. Its
  /// fields are guarded by the pool's mutex, which the analysis cannot name
  /// from here.
  class JobQueue {
   public:
    explicit JobQueue(std::size_t max_running)
        : max_running_(max_running == 0 ? 1 : max_running) {}

   private:
    friend class WorkerPool;
    const std::size_t max_running_;
    std::deque<std::function<void()>> jobs_;  // submitted, not started
    std::size_t ready_tokens_ = 0;  // this queue's turns in the ready queue
    std::size_t running_ = 0;       // ready turns + jobs executing
    std::size_t unfinished_ = 0;    // submitted, not finished
  };

  /// Enqueues `job`, which must not throw, to run on a pool thread.
  void Submit(JobQueue& queue, std::function<void()> job) AH_EXCLUDES(mu_);
  /// Blocks until every job submitted to `queue` has finished and been
  /// destroyed. Must not be called from one of `queue`'s jobs.
  void Drain(JobQueue& queue) AH_EXCLUDES(mu_);
  /// Jobs of `queue` not started yet.
  std::size_t Queued(const JobQueue& queue) const AH_EXCLUDES(mu_);

  /// Runs fn(slot) as slot 0 on the caller and as slots 1, 2, ... on up to
  /// `participants - 1` idle pool threads; returns when all have returned,
  /// rethrowing the caller's or else a helper's exception.
  template <typename Fn>
  void Fork(std::size_t participants, Fn&& fn) {
    ForkErased(
        participants,
        [](void* ctx, std::size_t slot) { (*static_cast<Fn*>(ctx))(slot); },
        &fn);
  }

  /// True when the participant in `slot` should stop claiming work: the
  /// caller never yields; helpers do while a job waits for a thread, so a
  /// long build fan-out cannot hold served requests back.
  bool ShouldYield(std::size_t slot) const {
    return slot != 0 && ready_jobs_.load() > 0;
  }

  /// Threads started over the pool's lifetime — its size, as none exits.
  std::uint64_t ThreadsStarted() const { return threads_started_.load(); }

 private:
  struct ForkState;
  /// A ready-queue entry: a JobQueue's turn to start one job, or a fork slot.
  struct Task {
    JobQueue* queue = nullptr;
    std::shared_ptr<ForkState> fork;
  };

  WorkerPool() = default;
  void ForkErased(std::size_t participants, void (*run)(void*, std::size_t),
                  void* ctx) AH_EXCLUDES(mu_);
  static void Help(ForkState& fork);
  void EnsureWorkersLocked(std::size_t n) AH_REQUIRES(mu_);
  void WorkerLoop() AH_EXCLUDES(mu_);
  /// Books a finished job: its queue's turn passes to the next waiting job
  /// or is given back.
  void FinishLocked(JobQueue& queue) AH_REQUIRES(mu_);

  mutable Mutex mu_;
  CondVar work_cv_;   // ready_ gained an entry
  CondVar drain_cv_;  // a JobQueue ran out of unfinished jobs
  std::deque<Task> ready_ AH_GUARDED_BY(mu_);
  std::size_t idle_ AH_GUARDED_BY(mu_) = 0;
  std::vector<std::thread> workers_ AH_GUARDED_BY(mu_);
  std::atomic<std::size_t> ready_jobs_{0};  // JobQueue turns in ready_
  std::atomic<std::uint64_t> threads_started_{0};
};

}  // namespace ah
