#include "src/base/merge_histogram.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/histogram.h"
#include "src/base/rng.h"

namespace ice {
namespace {

MergeHistogram::Options TestOptions() {
  MergeHistogram::Options o;
  o.lo = 1.0;
  o.hi = 1e6;
  o.buckets = 96;
  return o;
}

// Relative width of one bucket: adjacent edges differ by this factor.
double Growth(const MergeHistogram::Options& o) {
  return std::pow(o.hi / o.lo, 1.0 / o.buckets);
}

TEST(MergeHistogramTest, EmptyHistogram) {
  MergeHistogram h(TestOptions());
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Sum(), 0.0);
  EXPECT_EQ(h.Min(), 0.0);
  EXPECT_EQ(h.Max(), 0.0);
  EXPECT_EQ(h.Percentile(0.5), 0.0);
  for (size_t i = 0; i < h.num_buckets(); ++i) {
    EXPECT_EQ(h.bucket_count(i), 0u);
  }
}

TEST(MergeHistogramTest, BucketRouting) {
  MergeHistogram h(TestOptions());
  h.Add(0.5);    // Below lo: underflow.
  h.Add(-3.0);   // Negative: underflow.
  h.Add(1.0);    // Exactly lo: first finite bucket.
  h.Add(2e6);    // Above hi: overflow.
  h.Add(1e6);    // Exactly hi: overflow.
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(h.num_buckets() - 1), 2u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.Min(), -3.0);
  EXPECT_EQ(h.Max(), 2e6);
}

TEST(MergeHistogramTest, OverflowAndUnderflowPercentilesStayInRange) {
  MergeHistogram h(TestOptions());
  for (int i = 0; i < 10; ++i) {
    h.Add(1e7);  // All overflow.
  }
  EXPECT_EQ(h.Percentile(0.0), 1e7);
  EXPECT_EQ(h.Percentile(1.0), 1e7);

  MergeHistogram u(TestOptions());
  for (int i = 0; i < 10; ++i) {
    u.Add(0.25);  // All underflow.
  }
  EXPECT_GE(u.Percentile(0.5), 0.25);
  EXPECT_LE(u.Percentile(0.5), 1.0);
}

TEST(MergeHistogramTest, PercentilesAgreeWithExactHistogramWithinBucketWidth) {
  MergeHistogram::Options o = TestOptions();
  MergeHistogram merged(o);
  Histogram exact;
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    double v = rng.LogNormal(1200.0, 0.8);
    merged.Add(v);
    exact.Add(v);
  }
  const double tol = Growth(o);  // One bucket of relative error.
  for (double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    double want = exact.Percentile(q);
    double got = merged.Percentile(q);
    EXPECT_LE(got, want * tol) << "q=" << q;
    EXPECT_GE(got, want / tol) << "q=" << q;
  }
  EXPECT_EQ(merged.count(), exact.count());
  EXPECT_EQ(merged.Min(), exact.Min());
  EXPECT_EQ(merged.Max(), exact.Max());
  EXPECT_NEAR(merged.Sum() / merged.count(), exact.Mean(), exact.Mean() * 1e-9);
}

std::vector<MergeHistogram> Partials(const MergeHistogram::Options& o, int parts,
                                     int samples_each) {
  std::vector<MergeHistogram> out;
  Rng rng(99);
  for (int p = 0; p < parts; ++p) {
    MergeHistogram h(o);
    for (int i = 0; i < samples_each; ++i) {
      h.Add(rng.LogNormal(500.0 * (p + 1), 0.6));
    }
    out.push_back(h);
  }
  return out;
}

void ExpectSameDistribution(const MergeHistogram& a, const MergeHistogram& b) {
  ASSERT_EQ(a.num_buckets(), b.num_buckets());
  for (size_t i = 0; i < a.num_buckets(); ++i) {
    EXPECT_EQ(a.bucket_count(i), b.bucket_count(i)) << "bucket " << i;
  }
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.Min(), b.Min());
  EXPECT_EQ(a.Max(), b.Max());
  for (double q : {0.5, 0.9, 0.99}) {
    EXPECT_EQ(a.Percentile(q), b.Percentile(q));
  }
}

TEST(MergeHistogramTest, MergeIsCommutativeForCountsAndPercentiles) {
  auto parts = Partials(TestOptions(), 2, 5000);
  MergeHistogram ab(TestOptions());
  ab.Merge(parts[0]);
  ab.Merge(parts[1]);
  MergeHistogram ba(TestOptions());
  ba.Merge(parts[1]);
  ba.Merge(parts[0]);
  ExpectSameDistribution(ab, ba);
}

TEST(MergeHistogramTest, MergeIsAssociativeForCountsAndPercentiles) {
  auto parts = Partials(TestOptions(), 3, 3000);
  MergeHistogram left(TestOptions());  // (a + b) + c
  left.Merge(parts[0]);
  left.Merge(parts[1]);
  left.Merge(parts[2]);
  MergeHistogram bc(TestOptions());  // a + (b + c)
  bc.Merge(parts[1]);
  bc.Merge(parts[2]);
  MergeHistogram right(TestOptions());
  right.Merge(parts[0]);
  right.Merge(bc);
  ExpectSameDistribution(left, right);
}

// The fleet's determinism contract: folding the same partials in the same
// order twice reproduces every field bit-for-bit, including the double sum.
TEST(MergeHistogramTest, FixedFoldOrderIsByteStable) {
  auto parts = Partials(TestOptions(), 4, 2000);
  MergeHistogram a(TestOptions());
  MergeHistogram b(TestOptions());
  for (const MergeHistogram& p : parts) {
    a.Merge(p);
    b.Merge(p);
  }
  ExpectSameDistribution(a, b);
  EXPECT_EQ(a.Sum(), b.Sum());  // Exact bit equality, not NEAR.
}

TEST(MergeHistogramTest, MergeWithEmptyIsIdentity) {
  auto parts = Partials(TestOptions(), 1, 1000);
  MergeHistogram empty(TestOptions());
  MergeHistogram merged(TestOptions());
  merged.Merge(empty);
  EXPECT_TRUE(merged.empty());
  merged.Merge(parts[0]);
  merged.Merge(empty);
  ExpectSameDistribution(merged, parts[0]);
  EXPECT_EQ(merged.Sum(), parts[0].Sum());
}

}  // namespace
}  // namespace ice
