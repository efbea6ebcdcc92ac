#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/concurrent_engine.h"
#include "api/distance_oracle.h"
#include "core/ah_index.h"
#include "server/server_stack.h"
#include "test_util.h"
#include "util/parallel.h"
#include "util/worker_pool.h"

namespace ah {
namespace {

TEST(ParallelChunksTest, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelChunks(1000, 64, [&](std::size_t, std::size_t b, std::size_t e,
                               std::size_t) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelChunksTest, ChunkIndicesAreDense) {
  std::vector<std::atomic<int>> chunk_seen(16);
  ParallelChunks(1000, 64, [&](std::size_t c, std::size_t b, std::size_t e,
                               std::size_t) {
    ASSERT_LT(c, 16u);
    chunk_seen[c].fetch_add(1);
    EXPECT_EQ(b, c * 64);
    EXPECT_EQ(e, std::min<std::size_t>(1000, b + 64));
  });
  for (const auto& c : chunk_seen) EXPECT_EQ(c.load(), 1);
}

TEST(ParallelChunksTest, EmptyRangeIsNoop) {
  bool called = false;
  ParallelChunks(0, 8, [&](std::size_t, std::size_t, std::size_t,
                           std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelChunksTest, SingleThreadPathMatches) {
  // The serial and the fanned-out run cover the same indices. The sum is
  // atomic: with more than one participant, chunks run on several threads.
  for (std::size_t threads : {1, 4}) {
    std::atomic<int> sum{0};
    ParallelChunks(
        100, 7,
        [&](std::size_t, std::size_t b, std::size_t e, std::size_t) {
          for (std::size_t i = b; i < e; ++i) sum += static_cast<int>(i);
        },
        threads);
    EXPECT_EQ(sum.load(), 4950) << threads << " threads";
  }
}

TEST(ParallelChunksTest, WorkerThreadsRespectsEnv) {
  setenv("AH_THREADS", "3", 1);
  EXPECT_EQ(WorkerThreads(), 3u);
  unsetenv("AH_THREADS");
  EXPECT_GE(WorkerThreads(), 1u);
  EXPECT_LE(WorkerThreads(16), 16u);
}

TEST(ParallelDeterminismTest, AhBuildIdenticalAcrossThreadCounts) {
  // The parallel preprocessing merges in deterministic chunk order: the
  // index must be bit-identical whether built with 1 or many threads.
  Graph g = testing::MakeRoadGraph(16, 11);
  setenv("AH_THREADS", "1", 1);
  AhIndex serial = AhIndex::Build(g);
  setenv("AH_THREADS", "8", 1);
  AhIndex parallel = AhIndex::Build(g);
  unsetenv("AH_THREADS");
  ASSERT_EQ(serial.MaxLevel(), parallel.MaxLevel());
  EXPECT_EQ(serial.build_stats().shortcuts, parallel.build_stats().shortcuts);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    ASSERT_EQ(serial.LevelOf(v), parallel.LevelOf(v));
    ASSERT_EQ(serial.search_graph().RankOf(v),
              parallel.search_graph().RankOf(v));
    const Level j = serial.LevelOf(v) + 1;
    const auto a = serial.FwdGateways(v, j);
    const auto b = parallel.FwdGateways(v, j);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].node, b[i].node);
      ASSERT_EQ(a[i].dist, b[i].dist);
    }
  }
}

// Runs fn on every pool worker at once: one job per worker on a queue as
// wide as the pool, each holding its worker until all of them have started
// and fn has returned on each. Returns once every job has finished.
template <typename Fn>
void OnEveryWorker(Fn fn) {
  WorkerPool& pool = WorkerPool::Shared();
  const std::size_t workers = pool.ThreadsStarted();
  WorkerPool::JobQueue queue(workers);
  std::atomic<std::size_t> started{0};
  for (std::size_t i = 0; i < workers; ++i) {
    pool.Submit(queue, [&] {
      started.fetch_add(1);
      while (started.load() < workers) std::this_thread::yield();
      fn();
    });
  }
  pool.Drain(queue);
}

// Checks a ParallelChunks call: every index covered once, every chunk run by
// a participant id below the requested thread count.
void ExpectFullCoverage(std::size_t n, std::size_t chunk,
                        std::size_t threads) {
  std::vector<std::atomic<int>> hits(n);
  std::atomic<bool> bad_tid{false};
  ParallelChunks(
      n, chunk,
      [&](std::size_t, std::size_t b, std::size_t e, std::size_t tid) {
        if (tid >= threads) bad_tid = true;
        for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
      },
      threads);
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
  EXPECT_FALSE(bad_tid.load());
}

TEST(WorkerPoolTest, EveryIndexCoveredOnceAtAnyThreadCount) {
  for (std::size_t threads : {1, 2, 3, 4, 8, 32}) {
    ExpectFullCoverage(997, 13, threads);
    ExpectFullCoverage(3, 1, threads);
  }
}

// No two participants of one fan-out ever share a thread id, so per-id
// scratch (the pattern of every build) is never used concurrently.
TEST(WorkerPoolTest, ThreadIdsAreExclusive) {
  constexpr std::size_t kThreads = 4;
  std::vector<std::atomic<int>> inside(kThreads);
  std::atomic<bool> shared{false};
  for (int rep = 0; rep < 20; ++rep) {
    ParallelChunks(
        400, 1,
        [&](std::size_t, std::size_t, std::size_t, std::size_t tid) {
          if (inside[tid].fetch_add(1) != 0) shared = true;
          std::this_thread::yield();
          inside[tid].fetch_sub(1);
        },
        kThreads);
  }
  EXPECT_FALSE(shared.load());
}

// With every worker held by a job, a fan-out gets no helper: the caller
// runs every chunk itself, as participant 0, and returns.
TEST(WorkerPoolTest, CallerFinishesAloneWhenNoHelperStarts) {
  ParallelChunks(8, 1, [](std::size_t, std::size_t, std::size_t,
                          std::size_t) {});  // starts the pool
  std::promise<void> all_busy;
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::thread holder([&] {
    OnEveryWorker([&, first = std::make_shared<std::once_flag>()] {
      std::call_once(*first, [&] { all_busy.set_value(); });
      gate.wait();
    });
  });
  all_busy.get_future().wait();
  std::vector<std::size_t> tids;
  ParallelChunks(
      64, 1,
      [&](std::size_t, std::size_t, std::size_t, std::size_t tid) {
        tids.push_back(tid);  // safe only if the caller is alone
      },
      4);
  release.set_value();
  holder.join();
  EXPECT_EQ(tids, std::vector<std::size_t>(64, 0));
}

// A fan-out issued from inside a pool job, while every worker is busy with
// such a job, completes: each job's caller claims its own chunks.
TEST(WorkerPoolTest, NestedFanOutCompletesWhileEveryWorkerIsBusy) {
  std::atomic<std::size_t> completed{0};
  OnEveryWorker([&] {
    std::vector<std::atomic<int>> hits(500);
    ParallelChunks(
        hits.size(), 7,
        [&](std::size_t, std::size_t b, std::size_t e, std::size_t) {
          for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
        },
        4);
    bool exact = true;
    for (const auto& h : hits) exact = exact && h.load() == 1;
    if (exact) completed.fetch_add(1);
  });
  EXPECT_EQ(completed.load(), WorkerPool::Shared().ThreadsStarted());
}

TEST(WorkerPoolTest, ConcurrentFanOutsBothComplete) {
  std::vector<std::thread> callers;
  std::atomic<int> failures{0};
  for (int c = 0; c < 2; ++c) {
    callers.emplace_back([&] {
      for (int rep = 0; rep < 50; ++rep) {
        std::vector<std::atomic<int>> hits(300);
        ParallelChunks(
            hits.size(), 3,
            [&](std::size_t, std::size_t b, std::size_t e, std::size_t) {
              for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
            },
            4);
        for (const auto& h : hits) {
          if (h.load() != 1) failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// Many tiny fan-outs: most helpers wake after their caller has returned
// and its stack frame is gone. They must find the fork closed and leave
// (the sanitizer jobs turn a touch of the dead frame into a failure).
TEST(WorkerPoolTest, LateHelpersFindTheForkClosed) {
  for (int rep = 0; rep < 2000; ++rep) {
    int hits[2] = {0, 0};
    ParallelChunks(
        2, 1,
        [&](std::size_t c, std::size_t, std::size_t, std::size_t) {
          ++hits[c];
        },
        2);
    ASSERT_EQ(hits[0] + hits[1], 2);
  }
}

TEST(WorkerPoolTest, WindowedFanOutStaysInOrderFromInsideAPoolJob) {
  std::atomic<std::size_t> in_order{0};
  OnEveryWorker([&] {
    std::vector<std::size_t> consumed;
    ParallelChunksWindowed(
        100, 1, 3, [](std::size_t, std::size_t, std::size_t, std::size_t) {},
        [&](std::size_t c, std::size_t, std::size_t) { consumed.push_back(c); },
        4);
    std::vector<std::size_t> expected(100);
    std::iota(expected.begin(), expected.end(), 0);
    if (consumed == expected) in_order.fetch_add(1);
  });
  EXPECT_EQ(in_order.load(), WorkerPool::Shared().ThreadsStarted());
}

// A job queued while every worker helps a long fan-out starts at the next
// chunk boundary, not when the fan-out ends: helpers yield to waiting jobs.
TEST(WorkerPoolTest, QueuedJobTakesAHelpersThreadAtAChunkBoundary) {
  WorkerPool& pool = WorkerPool::Shared();
  ExpectFullCoverage(64, 1, 4);  // starts the pool
  // Let every worker go idle, so each one becomes a helper below.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  WorkerPool::JobQueue queue(1);
  std::atomic<bool> submitted{false};
  std::atomic<bool> job_ran{false};
  std::atomic<std::size_t> chunks_after_job{0};
  constexpr std::size_t kChunks = 400;
  ParallelChunks(
      kChunks, 1,
      [&](std::size_t, std::size_t, std::size_t, std::size_t tid) {
        if (tid == 0 && !submitted.exchange(true)) {
          pool.Submit(queue, [&] { job_ran = true; });
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        if (job_ran.load()) chunks_after_job.fetch_add(1);
      },
      pool.ThreadsStarted() + 1);
  pool.Drain(queue);
  EXPECT_TRUE(job_ran.load());
  EXPECT_GT(chunks_after_job.load(), kChunks / 2)
      << "the job waited for most of the fan-out";
}

// One queued job takes exactly one helper's thread: every other helper
// keeps claiming chunks after the job has run, until the fan-out ends.
TEST(WorkerPoolTest, OneQueuedJobTakesExactlyOneHelper) {
  WorkerPool& pool = WorkerPool::Shared();
  ExpectFullCoverage(64, 1, 4);  // starts the pool
  {
    // With every worker held, a queued job waits for a thread: of the
    // helpers asking at their chunk boundaries, only the first yields.
    std::promise<void> all_busy;
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    std::thread holder([&] {
      OnEveryWorker([&, first = std::make_shared<std::once_flag>()] {
        std::call_once(*first, [&] { all_busy.set_value(); });
        gate.wait();
      });
    });
    all_busy.get_future().wait();
    WorkerPool::JobQueue queue(1);
    std::atomic<bool> job_ran{false};
    pool.Submit(queue, [&] { job_ran = true; });
    EXPECT_FALSE(pool.ShouldYield(0));  // the caller never yields
    EXPECT_TRUE(pool.ShouldYield(1));
    EXPECT_FALSE(pool.ShouldYield(2));
    EXPECT_FALSE(pool.ShouldYield(3));
    release.set_value();
    holder.join();
    pool.Drain(queue);
    EXPECT_TRUE(job_ran.load());
  }
  // The same in a real fan-out, with every idle worker helping.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const std::size_t workers = pool.ThreadsStarted();
  WorkerPool::JobQueue queue(1);
  constexpr std::size_t kChunks = 600;
  std::vector<std::atomic<bool>> joined(workers + 1);
  std::vector<std::atomic<bool>> ran_after_job(workers + 1);
  std::atomic<std::size_t> helpers{0};
  std::atomic<bool> submitted{false};
  std::atomic<bool> job_ran{false};
  ParallelChunks(
      kChunks, 1,
      [&](std::size_t c, std::size_t, std::size_t, std::size_t tid) {
        if (tid != 0 && !joined[tid].exchange(true)) helpers.fetch_add(1);
        // Queue the job once every idle worker has joined as a helper.
        if (tid == 0 && !submitted.load() &&
            (helpers.load() == workers || c >= kChunks / 4)) {
          submitted = true;
          pool.Submit(queue, [&] { job_ran = true; });
        }
        if (job_ran.load()) ran_after_job[tid] = true;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      },
      workers + 1);
  pool.Drain(queue);
  ASSERT_TRUE(job_ran.load());
  std::size_t stayed = 0;
  for (std::size_t tid = 1; tid <= workers; ++tid) {
    if (ran_after_job[tid].load()) ++stayed;
  }
  ASSERT_GE(helpers.load(), 1u);
  EXPECT_EQ(stayed, helpers.load() - 1)
      << helpers.load() << " helpers joined; exactly one should leave";
  EXPECT_TRUE(ran_after_job[0].load());
}

// An exception thrown by any participant's chunk reaches the caller once
// every participant has left; the windowed form must not leave anyone
// waiting for the chunk that never completed.
TEST(WorkerPoolTest, ChunkExceptionsReachTheCaller) {
  for (int rep = 0; rep < 20; ++rep) {
    const std::size_t bad = static_cast<std::size_t>(rep) % 7;
    EXPECT_THROW(ParallelChunks(
                     64, 1,
                     [&](std::size_t c, std::size_t, std::size_t,
                         std::size_t) {
                       if (c == bad) throw std::runtime_error("chunk");
                     },
                     4),
                 std::runtime_error);
    EXPECT_THROW(ParallelChunksWindowed(
                     64, 1, 2,
                     [&](std::size_t c, std::size_t, std::size_t,
                         std::size_t) {
                       if (c == bad) throw std::runtime_error("chunk");
                     },
                     [](std::size_t, std::size_t, std::size_t) {}, 4),
                 std::runtime_error);
  }
  ExpectFullCoverage(100, 3, 4);  // the pool still works
}

// Once warm, the pool is all the threads fan-outs and served matrices use:
// repeating them starts no thread.
TEST(WorkerPoolTest, WarmFanOutsAndServedMatricesStartNoThreads) {
  const Graph g = testing::MakeRoadGraph(12, 5);
  server::ServerConfig config;
  config.cache_capacity = 0;  // every matrix request reaches the engine
  server::ServerStack stack(MakeOracle("ch", g), config);
  ConcurrentEngine engine(MakeOracle("ch", g));
  const std::vector<NodeId> nodes = {0, 3, 7, 11, 19, 23, 31, 40};
  const std::string matrix_request = "m 4 4 0 3 7 11 19 23 31 40";
  auto round_of_work = [&] {
    ExpectFullCoverage(1000, 10, 4);
    EXPECT_EQ(engine.DistanceMatrix(nodes, nodes).size(), 64u);
    const std::string reply = stack.HandleLine(matrix_request);
    EXPECT_EQ(reply.rfind("OK m", 0), 0u) << reply;
  };
  round_of_work();  // warm-up
  const std::uint64_t started = WorkerPool::Shared().ThreadsStarted();
  for (int rep = 0; rep < 20; ++rep) round_of_work();
  EXPECT_EQ(WorkerPool::Shared().ThreadsStarted(), started);
  EXPECT_GE(started, 1u);
}

}  // namespace
}  // namespace ah
