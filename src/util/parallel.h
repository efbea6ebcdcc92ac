// Chunked parallel-for on the shared worker pool (util/worker_pool.h): the
// caller is participant 0 and idle pool threads join it, for the parallel
// build loops and the batch and matrix fan-outs that serve queries. Results
// must be merged in deterministic chunk order by the caller — every user of
// this header does so, keeping builds bit-identical regardless of thread
// count (AH_THREADS overrides).
#pragma once

#include <algorithm>
#include <atomic>
#include <vector>

#include "util/thread_annotations.h"
#include "util/worker_pool.h"

namespace ah {

/// Splits [0, n) into fixed-size chunks and processes them on up to
/// `num_threads` participants (0 = WorkerThreads()): the caller plus idle
/// pool threads. `body(chunk_index, begin, end, thread_id)` must only write
/// to thread- or chunk-private state; thread_id < min(num_threads, chunks)
/// and no two participants share one. Chunk indices are dense: chunk c
/// covers [c*chunk_size, min(n, (c+1)*chunk_size)).
template <typename Body>
void ParallelChunks(std::size_t n, std::size_t chunk_size, Body&& body,
                    std::size_t num_threads = 0) {
  if (n == 0) return;
  if (chunk_size == 0) chunk_size = 1;
  const std::size_t num_chunks = (n + chunk_size - 1) / chunk_size;
  if (num_threads == 0) num_threads = WorkerThreads();
  WorkerPool& pool = WorkerPool::Shared();
  std::atomic<std::size_t> next_chunk{0};
  pool.Fork(std::min(num_threads, num_chunks), [&](std::size_t tid) {
    while (!pool.ShouldYield(tid)) {
      const std::size_t c = next_chunk.fetch_add(1);
      if (c >= num_chunks) return;
      const std::size_t begin = c * chunk_size;
      body(c, begin, std::min(n, begin + chunk_size), tid);
    }
  });
}

/// body(i, thread_id) for every i in [0, n) (thread_id as in ParallelChunks)
/// in about four chunks per participant, so one slow item cannot idle them.
template <typename Body>
void ParallelFor(std::size_t n, std::size_t num_threads, Body&& body) {
  if (num_threads == 0) num_threads = WorkerThreads();
  ParallelChunks(
      n, std::max<std::size_t>(1, n / (num_threads * 4)),
      [&](std::size_t, std::size_t begin, std::size_t end, std::size_t tid) {
        for (std::size_t i = begin; i < end; ++i) body(i, tid);
      },
      num_threads);
}

struct WindowedChunkStats {
  /// Peak number of chunks simultaneously produced-but-unconsumed (claimed
  /// chunks count from the moment a worker starts filling their buffer).
  /// Bounded by the window, never by the chunk count.
  std::size_t max_live_chunks = 0;
};

/// ParallelChunks with bounded in-flight output: workers run at most
/// `window` chunks ahead of a serial consumer. `consume(chunk_index, begin,
/// end)` runs for every chunk in index order, on whichever worker completed
/// the gating chunk, never re-entered — so it may append to shared output
/// without locking, and results are bit-identical at any thread count. At
/// most `window` chunk buffers are ever live, which bounds the peak RSS of
/// builds with large per-chunk output (SILC quadtrees, HL label deltas);
/// buffers may be indexed by `chunk_index % window`.
template <typename Body, typename Consume>
WindowedChunkStats ParallelChunksWindowed(std::size_t n, std::size_t chunk_size,
                                          std::size_t window, Body&& body,
                                          Consume&& consume,
                                          std::size_t num_threads = 0) {
  WindowedChunkStats stats;
  if (n == 0) return stats;
  if (chunk_size == 0) chunk_size = 1;
  if (window == 0) window = 1;
  const std::size_t num_chunks = (n + chunk_size - 1) / chunk_size;
  if (num_threads == 0) num_threads = WorkerThreads();

  // Locals cannot carry AH_GUARDED_BY (the analysis only tracks members
  // and globals); every access below is inside a MutexLock scope, which the
  // analysis does verify against the Unlock()/Lock() pairing.
  Mutex mu;
  CondVar cv;
  std::size_t next_claim = 0;    // next chunk index to hand to a worker
  std::size_t next_consume = 0;  // next chunk index the consumer needs
  std::size_t live = 0;          // claimed but not yet consumed
  bool consuming = false;        // one worker at a time plays consumer
  std::vector<char> done(num_chunks, 0);

  WorkerPool& pool = WorkerPool::Shared();
  pool.Fork(std::min(num_threads, num_chunks), [&](std::size_t tid) {
    while (!pool.ShouldYield(tid)) {
      MutexLock lock(mu);
      while (next_claim < num_chunks && next_claim >= next_consume + window) {
        cv.Wait(lock);
      }
      if (next_claim >= num_chunks) return;
      const std::size_t c = next_claim++;
      ++live;
      stats.max_live_chunks = std::max(stats.max_live_chunks, live);
      lock.Unlock();
      const std::size_t begin = c * chunk_size;
      try {
        body(c, begin, std::min(n, begin + chunk_size), tid);
      } catch (...) {  // chunk c never completes: end every claim and wait
        lock.Lock();
        next_claim = num_chunks;
        cv.NotifyAll();
        throw;
      }
      lock.Lock();
      done[c] = 1;
      // Drain every ready in-order chunk; whoever completes the chunk the
      // consumer is waiting on (or is already the consumer) does it.
      while (!consuming && next_consume < num_chunks &&
             done[next_consume] != 0) {
        consuming = true;
        const std::size_t ready = next_consume;
        lock.Unlock();
        const std::size_t ready_begin = ready * chunk_size;
        consume(ready, ready_begin, std::min(n, ready_begin + chunk_size));
        lock.Lock();
        consuming = false;
        ++next_consume;
        --live;
        cv.NotifyAll();
      }
    }
  });
  return stats;
}

}  // namespace ah
