#include "src/base/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/base/binary_stream.h"

namespace ice {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
  EXPECT_EQ(rng.Below(0), 0u);
  EXPECT_EQ(rng.Below(1), 0u);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(11);
  constexpr uint32_t kBuckets = 10;
  constexpr int kSamples = 100000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kSamples; ++i) {
    ++counts[rng.Below(kBuckets)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kSamples / kBuckets, kSamples / kBuckets * 0.1);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.Range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    if (rng.Chance(0.3)) {
      ++hits;
    }
  }
  EXPECT_NEAR(hits / static_cast<double>(kSamples), 0.3, 0.02);
}

TEST(Rng, GaussianMoments) {
  Rng rng(17);
  constexpr int kSamples = 100000;
  double sum = 0, sq = 0;
  for (int i = 0; i < kSamples; ++i) {
    double v = rng.Gaussian(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  double mean = sum / kSamples;
  double var = sq / kSamples - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Rng, ExponentialMean) {
  Rng rng(19);
  constexpr int kSamples = 200000;
  double sum = 0;
  for (int i = 0; i < kSamples; ++i) {
    double v = rng.Exponential(250.0);
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / kSamples, 250.0, 5.0);
}

// The rank formula as Rng::Zipf evaluated it before ZipfDist hoisted the
// per-(n, s) constants: both pows on every draw. Kept as the golden
// reference, because simulation outputs depend on every rank bit.
uint64_t ReferenceZipf(Rng& rng, uint64_t n, double s) {
  if (n <= 1) {
    return 0;
  }
  double u = rng.NextDouble();
  if (s == 1.0) {
    double h = std::log(static_cast<double>(n));
    uint64_t r = static_cast<uint64_t>(std::exp(u * h)) - 1;
    return r >= n ? n - 1 : r;
  }
  double one_minus_s = 1.0 - s;
  double hn = (std::pow(static_cast<double>(n), one_minus_s) - 1.0) / one_minus_s;
  double x = std::pow(u * hn * one_minus_s + 1.0, 1.0 / one_minus_s);
  uint64_t r = static_cast<uint64_t>(x) - (x >= 1.0 ? 1 : 0);
  return r >= n ? n - 1 : r;
}

std::vector<uint8_t> StateBytes(Rng& rng) {
  BinaryWriter w;
  SnapshotArchive ar(w);
  rng.Transfer(ar);
  return w.Finish();
}

TEST(ZipfDist, MatchesReferenceFormulaBitExact) {
  for (double s : {0.05, 0.55, 0.7, 0.9, 1.0}) {
    for (uint64_t n : {uint64_t{0}, uint64_t{1}, uint64_t{2}, uint64_t{3}, uint64_t{1000},
                       uint64_t{1} << 20}) {
      SCOPED_TRACE(testing::Message() << "s=" << s << " n=" << n);
      Rng ref(43), rng(43);
      ZipfDist zipf(n, s);
      for (int i = 0; i < 10000; ++i) {
        ASSERT_EQ(zipf.Sample(rng), ReferenceZipf(ref, n, s)) << "draw " << i;
      }
      EXPECT_EQ(StateBytes(rng), StateBytes(ref));
    }
  }
}

TEST(ZipfDist, InRangeAndSkewed) {
  Rng rng(23);
  constexpr uint64_t kN = 1000;
  constexpr int kSamples = 100000;
  ZipfDist zipf(kN, 0.9);
  int low_half = 0;
  for (int i = 0; i < kSamples; ++i) {
    uint64_t v = zipf.Sample(rng);
    ASSERT_LT(v, kN);
    if (v < kN / 2) {
      ++low_half;
    }
  }
  // Strong skew toward low ranks.
  EXPECT_GT(low_half, kSamples * 3 / 4);
}

TEST(ZipfDist, NearUniformWhenFlat) {
  Rng rng(29);
  constexpr uint64_t kN = 1000;
  constexpr int kSamples = 100000;
  ZipfDist zipf(kN, 0.05);
  int low_half = 0;
  for (int i = 0; i < kSamples; ++i) {
    if (zipf.Sample(rng) < kN / 2) {
      ++low_half;
    }
  }
  EXPECT_NEAR(low_half / static_cast<double>(kSamples), 0.5, 0.05);
}

TEST(Rng, LogNormalMedian) {
  Rng rng(31);
  constexpr int kSamples = 100001;
  std::vector<double> vals(kSamples);
  for (int i = 0; i < kSamples; ++i) {
    vals[i] = rng.LogNormal(100.0, 0.5);
    EXPECT_GT(vals[i], 0.0);
  }
  std::nth_element(vals.begin(), vals.begin() + kSamples / 2, vals.end());
  EXPECT_NEAR(vals[kSamples / 2], 100.0, 3.0);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(37);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, ForkDecorrelates) {
  Rng parent(41);
  Rng child = parent.Fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.Next() == child.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 5);
}

}  // namespace
}  // namespace ice
