#include "util/worker_pool.h"

#include <algorithm>
#include <cstdlib>
#include <exception>

namespace ah {

std::size_t WorkerThreads(std::size_t cap) {
  if (const char* raw = std::getenv("AH_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(raw, &end, 10);
    if (end != raw && v > 0) return static_cast<std::size_t>(v);
  }
  const std::size_t hw = std::thread::hardware_concurrency();
  return std::max<std::size_t>(1, std::min(hw == 0 ? 1 : hw, cap));
}

/// Heap state shared by a fork's caller and its queued helpers, so a helper
/// starting after the caller returned still finds the fork, closed. `run`
/// and `ctx` point into the caller's frame: only helpers that joined while
/// the fork was open call them, and the caller waits for those to leave.
struct WorkerPool::ForkState {
  static constexpr std::uint32_t kClosed = 1u << 31;
  ForkState(void (*r)(void*, std::size_t), void* c) : run(r), ctx(c) {}
  void (*run)(void*, std::size_t);
  void* ctx;
  std::atomic<std::uint32_t> joined{0};  // kClosed | helpers inside run
  std::atomic<std::size_t> next_slot{1};
  std::atomic<bool> failed{false};
  std::exception_ptr error;  // a helper's exception, rethrown by the caller
};

WorkerPool& WorkerPool::Shared() {
  static WorkerPool* const pool = new WorkerPool();
  return *pool;
}

void WorkerPool::EnsureWorkersLocked(std::size_t n) {
  constexpr std::size_t kMaxWorkers = 64;  // whatever AH_THREADS asks for
  if (workers_.empty()) n = std::max(n, WorkerThreads());
  while (workers_.size() < std::min(n, kMaxWorkers)) {
    workers_.emplace_back([this] { WorkerLoop(); });
    threads_started_.fetch_add(1);
  }
}

void WorkerPool::Submit(JobQueue& queue, std::function<void()> job) {
  {
    MutexLock lock(mu_);
    EnsureWorkersLocked(queue.max_running_);
    queue.jobs_.push_back(std::move(job));
    ++queue.unfinished_;
    if (queue.running_ == queue.max_running_) return;
    ++queue.running_;
    ++queue.ready_tokens_;
    ready_.push_back(Task{&queue, nullptr});
    ready_jobs_.fetch_add(1);
  }
  work_cv_.NotifyOne();
}

void WorkerPool::Drain(JobQueue& queue) {
  MutexLock lock(mu_);
  while (queue.unfinished_ != 0) drain_cv_.Wait(lock);
}

std::size_t WorkerPool::Queued(const JobQueue& queue) const {
  MutexLock lock(mu_);
  return queue.jobs_.size();
}

void WorkerPool::FinishLocked(JobQueue& queue) {
  if (--queue.unfinished_ == 0) drain_cv_.NotifyAll();
  if (queue.jobs_.size() <= queue.ready_tokens_) {
    --queue.running_;
    return;
  }
  ++queue.ready_tokens_;
  ready_.push_back(Task{&queue, nullptr});
  ready_jobs_.fetch_add(1);
  // This worker takes the front entry next; wake another if that is not it.
  if (ready_.size() > 1) work_cv_.NotifyOne();
}

void WorkerPool::WorkerLoop() {
  JobQueue* finished = nullptr;
  while (true) {
    Task task;
    std::function<void()> job;
    {
      MutexLock lock(mu_);
      if (finished != nullptr) FinishLocked(*finished);
      ++idle_;
      while (ready_.empty()) work_cv_.Wait(lock);
      --idle_;
      task = std::move(ready_.front());
      ready_.pop_front();
      if (task.queue != nullptr) {
        --task.queue->ready_tokens_;
        ready_jobs_.fetch_sub(1);
        job = std::move(task.queue->jobs_.front());
        task.queue->jobs_.pop_front();
      }
    }
    if (task.queue != nullptr) {
      job();
    } else {
      Help(*task.fork);
    }
    // `job` is destroyed before the next iteration books it finished.
    finished = task.queue;
  }
}

void WorkerPool::ForkErased(std::size_t participants,
                            void (*run)(void*, std::size_t), void* ctx) {
  std::shared_ptr<ForkState> fork;
  std::size_t helpers = 0;
  if (participants > 1) {
    MutexLock lock(mu_);
    EnsureWorkersLocked(1);
    // Only workers idle now and not spoken for by queued entries can help.
    const std::size_t free = idle_ > ready_.size() ? idle_ - ready_.size() : 0;
    helpers = std::min(participants - 1, free);
    if (helpers > 0) fork = std::make_shared<ForkState>(run, ctx);
    ready_.insert(ready_.end(), helpers, Task{nullptr, fork});
  }
  if (helpers == 0) return run(ctx, 0);
  for (std::size_t i = 0; i < helpers; ++i) work_cv_.NotifyOne();
  std::exception_ptr error;
  try {
    run(ctx, 0);
  } catch (...) {
    error = std::current_exception();
  }
  // Close the fork, then wait for the helpers inside it to leave.
  std::uint32_t state =
      fork->joined.fetch_or(ForkState::kClosed) | ForkState::kClosed;
  while (state != ForkState::kClosed) {
    fork->joined.wait(state);
    state = fork->joined.load();
  }
  if (!error) error = fork->error;
  if (error) std::rethrow_exception(error);
}

void WorkerPool::Help(ForkState& fork) {
  if ((fork.joined.fetch_add(1) & ForkState::kClosed) == 0) {
    try {
      fork.run(fork.ctx, fork.next_slot.fetch_add(1));
    } catch (...) {
      if (!fork.failed.exchange(true)) fork.error = std::current_exception();
    }
  }
  if (fork.joined.fetch_sub(1) == (ForkState::kClosed | 1)) {
    fork.joined.notify_all();
  }
}

}  // namespace ah
