// ConcurrentEngine: one immutable index behind a session pool and the batch
// fan-out APIs. Results must match the Dijkstra reference at every thread
// count, the lease pool must recycle sessions, and concurrent one-shot
// queries must be safe (the TSan CI job runs this suite).
#include "api/concurrent_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/distance_oracle.h"
#include "api/index_registry.h"
#include "routing/dijkstra.h"
#include "routing/path.h"
#include "test_util.h"
#include "util/rng.h"

namespace ah {
namespace {

std::vector<QueryPair> RandomPairs(const Graph& g, std::size_t count,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<QueryPair> pairs;
  pairs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    pairs.emplace_back(static_cast<NodeId>(rng.Uniform(g.NumNodes())),
                       static_cast<NodeId>(rng.Uniform(g.NumNodes())));
  }
  // Identity and extreme pairs.
  pairs.emplace_back(0, 0);
  pairs.emplace_back(0, static_cast<NodeId>(g.NumNodes() - 1));
  return pairs;
}

std::vector<Dist> ReferenceDistances(const Graph& g,
                                     const std::vector<QueryPair>& pairs) {
  Dijkstra reference(g);
  std::vector<Dist> expected;
  expected.reserve(pairs.size());
  for (const auto& [s, t] : pairs) expected.push_back(reference.Distance(s, t));
  return expected;
}

TEST(ConcurrentEngineTest, NullOracleOrRegistryThrows) {
  EXPECT_THROW(ConcurrentEngine(std::unique_ptr<DistanceOracle>()),
               std::invalid_argument);
  EXPECT_THROW(ConcurrentEngine(std::shared_ptr<IndexRegistry>()),
               std::invalid_argument);
}

// The unique_ptr convenience constructor wraps the oracle in a static
// single-backend registry: queries and leases work, epoch metadata is
// visible, lifecycle operations are rejected.
TEST(ConcurrentEngineTest, AdoptedOracleServesThroughStaticRegistry) {
  const Graph g = testing::MakeRoadGraph(6, 3);
  ConcurrentEngine engine(MakeOracle("ch", g), 2);
  EXPECT_EQ(engine.registry().Backends(), std::vector<std::string>{"ch"});
  auto lease = engine.Lease();
  EXPECT_EQ(lease.epoch().backend, "ch");
  EXPECT_EQ(lease.epoch().generation, 1u);
  EXPECT_THROW(engine.Lease("alt"), std::invalid_argument);
  EXPECT_FALSE(engine.registry().RequestReload());
}

TEST(ConcurrentEngineTest, ThreadCountDefaultsAndOverrides) {
  const Graph g = testing::MakeSingleNodeGraph();
  ConcurrentEngine defaulted(MakeOracle("dijkstra", g));
  EXPECT_GE(defaulted.NumThreads(), 1u);
  ConcurrentEngine pinned(MakeOracle("dijkstra", g), 3);
  EXPECT_EQ(pinned.NumThreads(), 3u);
}

TEST(ConcurrentEngineTest, EmptyBatchReturnsEmpty) {
  const Graph g = testing::MakeSingleNodeGraph();
  ConcurrentEngine engine(MakeOracle("dijkstra", g));
  EXPECT_TRUE(engine.BatchDistance({}).empty());
  EXPECT_TRUE(engine.BatchShortestPath({}).empty());
}

TEST(ConcurrentEngineTest, BatchDistanceMatchesReferenceAtEveryThreadCount) {
  const Graph g = testing::MakeRoadGraph(9, 19);
  const auto pairs = RandomPairs(g, 120, 5);
  const auto expected = ReferenceDistances(g, pairs);

  for (const char* backend : {"dijkstra", "ch", "fc", "ah"}) {
    ConcurrentEngine engine(MakeOracle(backend, g));
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      const std::vector<Dist> got = engine.BatchDistance(pairs, threads);
      ASSERT_EQ(got.size(), pairs.size());
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        ASSERT_EQ(got[i], expected[i])
            << backend << " @" << threads << " threads: d(" << pairs[i].first
            << ", " << pairs[i].second << ")";
      }
    }
  }
}

TEST(ConcurrentEngineTest, BatchShortestPathMatchesReference) {
  const Graph g = testing::MakeRandomGraph(50, 150, 23);
  const auto pairs = RandomPairs(g, 40, 6);
  const auto expected = ReferenceDistances(g, pairs);

  ConcurrentEngine engine(MakeOracle("ch", g), 4);
  const std::vector<PathResult> got = engine.BatchShortestPath(pairs);
  ASSERT_EQ(got.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_EQ(got[i].length, expected[i]) << "path length #" << i;
    if (expected[i] == kInfDist) {
      EXPECT_TRUE(got[i].nodes.empty());
    } else {
      EXPECT_TRUE(IsValidPath(g, got[i].nodes, pairs[i].first, pairs[i].second,
                              expected[i]))
          << "infeasible path #" << i;
    }
  }
}

// Batches on a disconnected graph: unreachable pairs must come back kInfDist
// from every worker.
TEST(ConcurrentEngineTest, BatchHandlesUnreachablePairs) {
  const Graph g = testing::MakeDisconnectedGraph(20, 29);
  const auto pairs = RandomPairs(g, 80, 7);
  const auto expected = ReferenceDistances(g, pairs);
  ConcurrentEngine engine(MakeOracle("fc", g), 4);
  EXPECT_EQ(engine.BatchDistance(pairs), expected);
}

TEST(ConcurrentEngineTest, LeasedSessionsAreIndependentAndRecycled) {
  const Graph g = testing::MakeRoadGraph(6, 3);
  ConcurrentEngine engine(MakeOracle("ch", g), 2);
  const Dist direct = engine.Distance(0, static_cast<NodeId>(g.NumNodes() - 1));
  {
    auto lease_a = engine.Lease();
    auto lease_b = engine.Lease();
    EXPECT_EQ(lease_a->Distance(0, static_cast<NodeId>(g.NumNodes() - 1)),
              direct);
    EXPECT_EQ(lease_b->Distance(0, static_cast<NodeId>(g.NumNodes() - 1)),
              direct);
  }
  // After the leases return to the pool the engine still answers (reusing
  // the pooled sessions) and paths agree with distances.
  const PathResult p =
      engine.ShortestPath(0, static_cast<NodeId>(g.NumNodes() - 1));
  EXPECT_EQ(p.length, direct);
}

// Many threads hammering the one-shot convenience API concurrently: every
// call leases from the shared pool, so this exercises pool locking and
// cross-thread session recycling (TSan-checked in CI).
TEST(ConcurrentEngineTest, ConcurrentOneShotQueriesAreConsistent) {
  const Graph g = testing::MakeRoadGraph(8, 17);
  const auto pairs = RandomPairs(g, 60, 9);
  const auto expected = ReferenceDistances(g, pairs);
  ConcurrentEngine engine(MakeOracle("ah", g));

  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<Dist>> got(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      got[w].reserve(pairs.size());
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        const std::size_t j = (i + w * 13) % pairs.size();
        got[w].push_back(engine.Distance(pairs[j].first, pairs[j].second));
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (std::size_t w = 0; w < kThreads; ++w) {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const std::size_t j = (i + w * 13) % pairs.size();
      ASSERT_EQ(got[w][i], expected[j]) << "thread " << w << " pair " << j;
    }
  }
}

// Async jobs share the process-wide pool: the destructor must still wait
// for every job the engine was given, queued or running, and the engine's
// thread count must cap how many of its jobs run at once.
TEST(ConcurrentEngineTest, DestructorRunsEveryJobItWasGiven) {
  const Graph g = testing::MakeRoadGraph(6, 5);
  const auto pairs = RandomPairs(g, 50, 4);
  const auto expected = ReferenceDistances(g, pairs);
  constexpr std::size_t kJobs = 200;
  std::atomic<std::size_t> ran{0};
  std::atomic<std::size_t> wrong{0};
  std::atomic<int> running{0};
  std::atomic<int> max_running{0};
  {
    ConcurrentEngine engine(MakeOracle("ch", g), 2);
    for (std::size_t i = 0; i < kJobs; ++i) {
      engine.SubmitAsync([&, i] {
        const int now = running.fetch_add(1) + 1;
        int seen = max_running.load();
        while (now > seen && !max_running.compare_exchange_weak(seen, now)) {
        }
        const auto& [s, t] = pairs[i % pairs.size()];
        if (engine.Distance(s, t) != expected[i % pairs.size()]) {
          wrong.fetch_add(1);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        running.fetch_sub(1);
        ran.fetch_add(1);
      });
    }
    EXPECT_GT(engine.AsyncQueueDepth(), 0u) << "200 sleeping jobs, 2 at once";
  }
  EXPECT_EQ(ran.load(), kJobs);
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_LE(max_running.load(), 2);
}

}  // namespace
}  // namespace ah
