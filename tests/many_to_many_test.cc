#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "ch/ch_index.h"
#include "core/ah_index.h"
#include "hier/many_to_many.h"
#include "routing/dijkstra.h"
#include "test_util.h"

namespace ah {
namespace {

std::vector<NodeId> RandomNodes(const Graph& g, std::size_t count, Rng& rng) {
  std::vector<NodeId> nodes;
  for (std::size_t i = 0; i < count; ++i) {
    nodes.push_back(static_cast<NodeId>(rng.Uniform(g.NumNodes())));
  }
  return nodes;
}

class ManyToManySeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ManyToManySeedTest, MatchesDijkstraOnChHierarchy) {
  Graph g = testing::MakeRoadGraph(18, GetParam());
  ChIndex ch = ChIndex::Build(g);
  Rng rng(GetParam());
  const std::vector<NodeId> targets = RandomNodes(g, 13, rng);
  const std::vector<NodeId> sources = RandomNodes(g, 11, rng);
  ManyToMany mtm(ch.search_graph(), targets);
  const std::vector<Dist> matrix = mtm.DistancesFrom(sources);
  ASSERT_EQ(matrix.size(), sources.size() * targets.size());
  Dijkstra dijkstra(g);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    for (std::size_t j = 0; j < targets.size(); ++j) {
      ASSERT_EQ(matrix[i * targets.size() + j],
                dijkstra.Distance(sources[i], targets[j]))
          << "s=" << sources[i] << " t=" << targets[j];
    }
  }
}

TEST_P(ManyToManySeedTest, MatchesDijkstraOnAhHierarchy) {
  Graph g = testing::MakeRandomGraph(140, 420, GetParam());
  AhIndex ah = AhIndex::Build(g);
  Rng rng(GetParam() + 1);
  const std::vector<NodeId> targets = RandomNodes(g, 9, rng);
  const std::vector<NodeId> sources = RandomNodes(g, 9, rng);
  ManyToMany mtm(ah.search_graph(), targets);
  const std::vector<Dist> matrix = mtm.DistancesFrom(sources);
  Dijkstra dijkstra(g);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    for (std::size_t j = 0; j < targets.size(); ++j) {
      ASSERT_EQ(matrix[i * targets.size() + j],
                dijkstra.Distance(sources[i], targets[j]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ManyToManySeedTest,
                         ::testing::Values(1, 7, 13));

// Construction and queries must be bit-identical at any thread count: the
// bucket CSR is canonically sorted and each source owns its result row.
TEST(ManyToManyTest, DeterministicAcrossThreadCounts) {
  Graph g = testing::MakeRoadGraph(22, 17);
  ChIndex ch = ChIndex::Build(g);
  Rng rng(17);
  const std::vector<NodeId> targets = RandomNodes(g, 40, rng);
  const std::vector<NodeId> sources = RandomNodes(g, 40, rng);
  ManyToMany reference(ch.search_graph(), targets, /*num_threads=*/1);
  const std::vector<Dist> expected =
      reference.DistancesFrom(sources, /*num_threads=*/1);
  for (std::size_t threads : {2, 3, 4}) {
    ManyToMany mtm(ch.search_graph(), targets, threads);
    EXPECT_EQ(mtm.NumBucketEntries(), reference.NumBucketEntries());
    EXPECT_EQ(mtm.DistancesFrom(sources, threads), expected)
        << "threads=" << threads;
  }
}

TEST(ManyToManyTest, DisconnectedCellsAreInf) {
  // Two 3-node directed cycles with no arcs between them.
  GraphBuilder builder(6);
  for (int i = 0; i < 6; ++i) {
    builder.AddNode(Point{100 * i, 0});
  }
  for (NodeId base : {NodeId{0}, NodeId{3}}) {
    for (NodeId i = 0; i < 3; ++i) {
      builder.AddArc(base + i, base + (i + 1) % 3, 5);
    }
  }
  Graph g = builder.Build();
  ChIndex ch = ChIndex::Build(g);
  const std::vector<NodeId> targets = {0, 3};
  const std::vector<NodeId> sources = {1, 4};
  ManyToMany mtm(ch.search_graph(), targets);
  const std::vector<Dist> matrix = mtm.DistancesFrom(sources);
  ASSERT_EQ(matrix.size(), 4u);
  EXPECT_EQ(matrix[0], 10u);       // 1 -> 0 within the first cycle
  EXPECT_EQ(matrix[1], kInfDist);  // 1 -> 3 crosses components
  EXPECT_EQ(matrix[2], kInfDist);  // 4 -> 0 crosses components
  EXPECT_EQ(matrix[3], 10u);       // 4 -> 3 within the second cycle
}

TEST(ManyToManyTest, EmptySourcesOrTargets) {
  Graph g = testing::MakeRoadGraph(8, 2);
  ChIndex ch = ChIndex::Build(g);
  ManyToMany no_targets(ch.search_graph(), {});
  EXPECT_TRUE(no_targets.DistancesFrom(std::vector<NodeId>{0, 1}).empty());
  ManyToMany some_targets(ch.search_graph(), {0, 1});
  EXPECT_TRUE(some_targets.DistancesFrom(std::vector<NodeId>{}).empty());
}

TEST(ManyToManyTest, SourceEqualsTargetIsZero) {
  Graph g = testing::MakeRoadGraph(10, 4);
  ChIndex ch = ChIndex::Build(g);
  const std::vector<NodeId> nodes = {3, 17, 42};
  ManyToMany mtm(ch.search_graph(), nodes);
  const std::vector<Dist> matrix = mtm.DistancesFrom(nodes);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(matrix[i * nodes.size() + i], 0u);
  }
}

// One immutable engine queried from several threads at once: DistancesFrom
// is const and searches with each thread's own scratch, so concurrent
// callers must agree.
TEST(ManyToManyTest, ConcurrentQueriesShareOneEngine) {
  Graph g = testing::MakeRoadGraph(16, 23);
  ChIndex ch = ChIndex::Build(g);
  Rng rng(23);
  const std::vector<NodeId> targets = RandomNodes(g, 16, rng);
  const std::vector<NodeId> sources = RandomNodes(g, 16, rng);
  ManyToMany mtm(ch.search_graph(), targets);
  const std::vector<Dist> expected = mtm.DistancesFrom(sources, 1);
  constexpr int kThreads = 4;
  std::vector<std::vector<Dist>> got(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back(
        [&, t] { got[t] = mtm.DistancesFrom(sources, /*num_threads=*/1); });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(got[t], expected);
}

// A long-lived scratch outlives 2^32 searches. The scratch first runs a few
// searches at rounds 1, 2, ...; then its counter jumps to three short of
// the wrap, as if 2^32 searches had passed. Every search across the wrap
// must still answer exactly: without the reset, the rounds after the wrap
// would read the nodes stamped at those early rounds as current, with the
// distances of other sources.
TEST(ManyToManyTest, RoundCounterWrapKeepsAnswersExact) {
  Graph g = testing::MakeRoadGraph(16, 29);
  ChIndex ch = ChIndex::Build(g);
  Rng rng(29);
  const std::vector<NodeId> targets = RandomNodes(g, 12, rng);
  const TargetBuckets buckets(ch.search_graph(), targets, 1);
  UpwardSearchScratch scratch(g.NumNodes());
  Dijkstra dijkstra(g);
  for (int search = 0; search < 14; ++search) {
    if (search == 6) {
      scratch.round = std::numeric_limits<std::uint32_t>::max() - 2;
    }
    const NodeId s = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
    std::vector<Dist> row(targets.size(), kInfDist);
    CombineFromSource(ch.search_graph(), buckets, s, scratch, row);
    for (std::size_t j = 0; j < targets.size(); ++j) {
      ASSERT_EQ(row[j], dijkstra.Distance(s, targets[j]))
          << "search " << search << " (round " << scratch.round << "), s=" << s
          << " t=" << targets[j];
    }
  }
  EXPECT_EQ(scratch.round, 6u) << "the counter restarts at 1 after the wrap";
}

}  // namespace
}  // namespace ah
