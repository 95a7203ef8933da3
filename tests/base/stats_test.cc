#include "src/base/stats.h"

#include <gtest/gtest.h>

namespace ice {
namespace {

TEST(StatsRegistry, CountersStartAtZero) {
  StatsRegistry stats;
  EXPECT_EQ(stats.Get("nope"), 0u);
  EXPECT_EQ(*stats.Counter("a"), 0u);
}

TEST(StatsRegistry, AddAndIncrement) {
  StatsRegistry stats;
  stats.Increment("x");
  stats.Add("x", 4);
  EXPECT_EQ(stats.Get("x"), 5u);
}

TEST(StatsRegistry, CounterPointerIsStable) {
  StatsRegistry stats;
  uint64_t* p = stats.Counter("p");
  for (int i = 0; i < 100; ++i) {
    stats.Counter("c" + std::to_string(i));
  }
  *p += 7;
  EXPECT_EQ(stats.Get("p"), 7u);
}

TEST(StatsRegistry, SnapshotAndDiff) {
  StatsRegistry stats;
  stats.Add("a", 10);
  auto before = stats.Snapshot();
  stats.Add("a", 5);
  stats.Add("b", 3);
  auto diff = StatsRegistry::Diff(before, stats.Snapshot());
  EXPECT_EQ(diff["a"], 5u);
  EXPECT_EQ(diff["b"], 3u);
}

TEST(StatsRegistry, ResetZeroesAll) {
  StatsRegistry stats;
  stats.Add("a", 10);
  stats.Reset();
  EXPECT_EQ(stats.Get("a"), 0u);
}

}  // namespace
}  // namespace ice
