#include "src/base/histogram.h"

#include <gtest/gtest.h>

namespace ice {
namespace {

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Percentile(0.5), 0.0);
}

TEST(Histogram, BasicMoments) {
  Histogram h;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    h.Add(v);
  }
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.Sum(), 15.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(h.Min(), 1.0);
  EXPECT_DOUBLE_EQ(h.Max(), 5.0);
}

TEST(Histogram, Percentiles) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) {
    h.Add(i);
  }
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 100.0);
  EXPECT_NEAR(h.Percentile(0.5), 50.5, 0.01);
  EXPECT_NEAR(h.Percentile(0.95), 95.05, 0.1);
}

TEST(Histogram, PercentileClampsQ) {
  Histogram h;
  h.Add(42.0);
  EXPECT_DOUBLE_EQ(h.Percentile(-1.0), 42.0);
  EXPECT_DOUBLE_EQ(h.Percentile(2.0), 42.0);
}

TEST(Histogram, PercentileSeesLaterAdds) {
  Histogram h;
  h.Add(1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 1.0);
  h.Add(10.0);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 10.0);
}

TEST(Histogram, ClearResets) {
  Histogram h;
  h.Add(1.0);
  h.Clear();
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.Mean(), 0.0);
}

}  // namespace
}  // namespace ice
