#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <queue>
#include <vector>

#include "util/indexed_heap.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/types.h"

namespace ah {
namespace {

TEST(IndexedHeapTest, StartsEmpty) {
  IndexedHeap heap(8);
  EXPECT_TRUE(heap.Empty());
  EXPECT_EQ(heap.Size(), 0u);
  EXPECT_FALSE(heap.Contains(0));
}

TEST(IndexedHeapTest, PopsInKeyOrder) {
  IndexedHeap heap(8);
  heap.PushOrDecrease(3, 30);
  heap.PushOrDecrease(1, 10);
  heap.PushOrDecrease(2, 20);
  auto [k1, i1] = heap.PopMin();
  auto [k2, i2] = heap.PopMin();
  auto [k3, i3] = heap.PopMin();
  EXPECT_EQ(i1, 1u);
  EXPECT_EQ(k1, 10u);
  EXPECT_EQ(i2, 2u);
  EXPECT_EQ(k2, 20u);
  EXPECT_EQ(i3, 3u);
  EXPECT_EQ(k3, 30u);
  EXPECT_TRUE(heap.Empty());
}

TEST(IndexedHeapTest, DecreaseKeyReordersEntry) {
  IndexedHeap heap(8);
  heap.PushOrDecrease(0, 50);
  heap.PushOrDecrease(1, 40);
  EXPECT_TRUE(heap.PushOrDecrease(0, 5));
  EXPECT_EQ(heap.MinId(), 0u);
  EXPECT_EQ(heap.KeyOf(0), 5u);
}

TEST(IndexedHeapTest, IncreaseIsIgnored) {
  IndexedHeap heap(4);
  heap.PushOrDecrease(2, 7);
  EXPECT_FALSE(heap.PushOrDecrease(2, 9));
  EXPECT_EQ(heap.KeyOf(2), 7u);
}

TEST(IndexedHeapTest, ContainsTracksMembership) {
  IndexedHeap heap(4);
  heap.PushOrDecrease(2, 7);
  EXPECT_TRUE(heap.Contains(2));
  heap.PopMin();
  EXPECT_FALSE(heap.Contains(2));
}

TEST(IndexedHeapTest, ClearAllowsReuse) {
  IndexedHeap heap(4);
  heap.PushOrDecrease(0, 1);
  heap.PushOrDecrease(1, 2);
  heap.Clear();
  EXPECT_TRUE(heap.Empty());
  EXPECT_FALSE(heap.Contains(0));
  heap.PushOrDecrease(1, 5);
  EXPECT_EQ(heap.MinId(), 1u);
}

TEST(IndexedHeapTest, ResizeGrowsUniverse) {
  IndexedHeap heap(2);
  heap.Resize(100);
  heap.PushOrDecrease(99, 3);
  EXPECT_EQ(heap.MinId(), 99u);
}

TEST(IndexedHeapTest, RandomizedAgainstStdPriorityQueue) {
  Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    IndexedHeap heap(512);
    // Reference: id -> best key (std::priority_queue with lazy deletion).
    std::vector<Dist> best(512, kInfDist);
    using Entry = std::pair<Dist, std::uint32_t>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> ref;
    for (int op = 0; op < 400; ++op) {
      if (rng.Chance(0.7) || ref.empty()) {
        const std::uint32_t id = static_cast<std::uint32_t>(rng.Uniform(512));
        const Dist key = rng.Uniform(1000);
        if (key < best[id]) {
          best[id] = key;
          ref.push({key, id});
        }
        heap.PushOrDecrease(id, key);
        if (best[id] < kInfDist) {
          ASSERT_TRUE(heap.Contains(id));
          ASSERT_EQ(heap.KeyOf(id), best[id]);
        }
      } else {
        while (!ref.empty() && best[ref.top().second] != ref.top().first) {
          ref.pop();  // Stale.
        }
        if (ref.empty()) continue;
        auto [k, id] = heap.PopMin();
        ASSERT_EQ(k, ref.top().first);
        best[id] = kInfDist;
        // Note: several ids can share the min key; accept any of them.
        std::vector<Entry> popped;
        bool matched = false;
        while (!ref.empty() && ref.top().first == k) {
          if (ref.top().second == id) {
            matched = true;
            ref.pop();
            break;
          }
          popped.push_back(ref.top());
          ref.pop();
        }
        for (const Entry& e : popped) ref.push(e);
        ASSERT_TRUE(matched);
      }
    }
  }
}

TEST(NextRoundTest, WrapClearsEveryStampArrayAndRestartsAtOne) {
  std::uint32_t round = std::numeric_limits<std::uint32_t>::max() - 1;
  std::vector<std::uint32_t> a = {0, 1, 2, round};
  std::vector<std::uint32_t> b = {round, 7};
  EXPECT_EQ(NextRound(round, a, b), std::numeric_limits<std::uint32_t>::max());
  EXPECT_EQ(a[3], std::numeric_limits<std::uint32_t>::max() - 1)
      << "no clearing before the wrap";
  EXPECT_EQ(NextRound(round, a, b), 1u);
  EXPECT_EQ(round, 1u);
  EXPECT_EQ(a, std::vector<std::uint32_t>(4, 0));
  EXPECT_EQ(b, std::vector<std::uint32_t>(2, 0));
  EXPECT_EQ(NextRound(round, a, b), 2u);
}

TEST(SampleStatsTest, MeanMinMax) {
  SampleStats s;
  s.AddAll({4, 1, 7});
  EXPECT_DOUBLE_EQ(s.Mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
  EXPECT_DOUBLE_EQ(s.Max(), 7.0);
  EXPECT_EQ(s.Count(), 3u);
}

TEST(SampleStatsTest, NearestRankQuantiles) {
  SampleStats s;
  for (int i = 1; i <= 100; ++i) s.Add(i);
  EXPECT_DOUBLE_EQ(s.Quantile(0.90), 90.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 1.0);
}

TEST(SampleStatsTest, QuantileSingleElement) {
  SampleStats s;
  s.Add(42);
  EXPECT_DOUBLE_EQ(s.Quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.99), 42.0);
}

TEST(SampleStatsTest, EmptyThrows) {
  SampleStats s;
  EXPECT_THROW(s.Mean(), std::logic_error);
  EXPECT_THROW(s.Quantile(0.5), std::logic_error);
  EXPECT_THROW(s.Min(), std::logic_error);
}

TEST(SampleStatsTest, StdDev) {
  SampleStats s;
  s.AddAll({2, 4, 4, 4, 5, 5, 7, 9});
  EXPECT_NEAR(s.StdDev(), 2.138, 0.001);
}

TEST(SampleStatsTest, ResetClears) {
  SampleStats s;
  s.Add(1);
  s.Reset();
  EXPECT_TRUE(s.Empty());
}

TEST(TextTableTest, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.AddRow({"x", "1"});
  t.AddRow({"longer", "22"});
  const std::string out = t.Render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  EXPECT_EQ(t.NumRows(), 2u);
}

TEST(TextTableTest, PadsShortRows) {
  TextTable t({"a", "b", "c"});
  t.AddRow({"only"});
  EXPECT_NO_THROW(t.Render());
}

TEST(TextTableTest, NumFormatting) {
  EXPECT_EQ(TextTable::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::Num(2.0, 0), "2");
}

TEST(TextTableTest, IntThousandsSeparators) {
  EXPECT_EQ(TextTable::Int(0), "0");
  EXPECT_EQ(TextTable::Int(999), "999");
  EXPECT_EQ(TextTable::Int(1000), "1,000");
  EXPECT_EQ(TextTable::Int(23947347), "23,947,347");
  EXPECT_EQ(TextTable::Int(-1234), "-1,234");
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(7);
  Rng b(8);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.Next() == b.Next();
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    const auto v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, SplitIsIndependent) {
  Rng a(7);
  Rng child = a.Split();
  EXPECT_NE(a.Next(), child.Next());
}

}  // namespace
}  // namespace ah
