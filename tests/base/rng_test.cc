#include "src/base/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <vector>

#include "tests/base/zipf_reference.h"

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

// Spans wider than INT64_MAX: the span and lo + offset must be computed
// without signed overflow (UBSan reports it as undefined behaviour).
TEST(Rng, RangeFullAndHalfDomainSpans) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  // The full domain takes one Next64, reinterpreted.
  Rng rng(47), twin(47);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(rng.Range(kMin, kMax), std::bit_cast<int64_t>(twin.Next64()));
  }
  struct Span {
    int64_t lo, hi;
  };
  for (Span span : {Span{kMin, -1}, Span{kMin, 0}, Span{-1, kMax}, Span{0, kMax},
                    Span{kMin / 2, kMax / 2 + 1}, Span{kMin + 1, kMax}}) {
    SCOPED_TRACE(testing::Message() << "[" << span.lo << ", " << span.hi << "]");
    // Midpoint of the span, computed without overflow.
    const int64_t mid = span.lo / 2 + span.hi / 2;
    bool saw_low = false, saw_high = false;
    for (int i = 0; i < 1000; ++i) {
      int64_t v = rng.Range(span.lo, span.hi);
      ASSERT_GE(v, span.lo);
      ASSERT_LE(v, span.hi);
      saw_low |= v < mid;
      saw_high |= v > mid;
    }
    EXPECT_TRUE(saw_low);
    EXPECT_TRUE(saw_high);
  }
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

// The exponents 1 / (1 - s) as ZipfDist computes them.
double ExponentOf(double s) { return 1.0 / (1.0 - s); }

TEST(PowTable, OnlyTheExponentsThatCarryDraws) {
  for (double s : {0.05, 0.55, 0.7}) {
    const PowTable* table = PowTable::For(ExponentOf(s));
    ASSERT_NE(table, nullptr) << "s=" << s;
    EXPECT_EQ(table->exponent(), ExponentOf(s));
    EXPECT_GT(table->bound(), 0.0);
    EXPECT_LT(table->bound(), 1e-10);
  }
  EXPECT_EQ(PowTable::For(ExponentOf(0.9)), nullptr);
  EXPECT_EQ(PowTable::For(2.0), nullptr);
  // Outside the table: below 1 and beyond its octaves.
  const PowTable* table = PowTable::For(ExponentOf(0.55));
  EXPECT_EQ(table->Floor(0.75), 0u);
  EXPECT_EQ(table->Floor(std::ldexp(1.0, table->octaves())), 0u);
  EXPECT_EQ(table->Floor(-3.0), 0u);
}

// Every table against long double powl, at no fewer than 1M points per
// table covering every segment of every octave it holds (the workloads reach
// octaves 0-15 at s = 0.05, 0-7 at 0.55 and 0-4 at 0.7): each segment's two
// ends and uniform points between them.
TEST(PowTable, StaysWithinItsDerivedBound) {
  Rng rng(53);
  for (double s : {0.05, 0.55, 0.7}) {
    const PowTable* table = PowTable::For(ExponentOf(s));
    ASSERT_NE(table, nullptr);
    const long double e = table->exponent();
    const int segments = table->octaves() * PowTable::kSegments;
    const int per_segment = 1'000'000 / segments + 1;
    long double worst = 0;
    for (int seg = 0; seg < segments; ++seg) {
      const int octave = seg / PowTable::kSegments;
      const double begin = std::ldexp(1.0 + (seg % PowTable::kSegments) / 64.0, octave);
      const double end = std::ldexp(1.0 + (seg % PowTable::kSegments + 1) / 64.0, octave);
      for (int i = 0; i < per_segment; ++i) {
        double y = i == 0   ? begin
                   : i == 1 ? std::nextafter(end, 0.0)
                            : begin + (end - begin) * rng.NextDouble();
        const long double exact = std::pow(static_cast<long double>(y), e);
        const long double err = std::fabs(table->Approx(y) - exact) / exact;
        worst = std::max(worst, err);
        ASSERT_LE(err, table->bound()) << "s=" << s << " y=" << y;
      }
    }
    std::printf("[ pow table ] s=%.2f octaves=%d bound=%.3g worst=%.3g (%d points)\n", s,
                table->octaves(), table->bound(), static_cast<double>(worst),
                segments * per_segment);
  }
}

// Drives y into the guard band and across its edges. For every integer K in
// [2, 2^20]: y within two ULPs of K^(1 / e), where y^e is within a few ULPs
// of K, and y moved so that y^e sits 2^-48 to 2^-36 (relative) from K, on
// either side, which brackets every table's band. Wherever the table answers,
// it must answer floor(std::pow(y, e)); each exponent must fall back at least
// once and answer at least once.
TEST(PowTable, GuardBandKeepsRanksOfNearIntegers) {
  for (double s : {0.05, 0.55, 0.7}) {
    const PowTable* table = PowTable::For(ExponentOf(s));
    ASSERT_NE(table, nullptr);
    const double e = table->exponent();
    const long double inv_e = 1.0L / static_cast<long double>(e);
    uint64_t answered = 0;
    uint64_t fallbacks = 0;
    auto check = [&](double y, uint64_t k) {
      const uint64_t got = table->Floor(y);
      if (got == 0) {
        ++fallbacks;
        return true;
      }
      ++answered;
      const uint64_t expect = static_cast<uint64_t>(std::pow(y, e));
      EXPECT_EQ(got, expect) << "s=" << s << " K=" << k << " y=" << y;
      return got == expect;
    };
    for (uint64_t k = 2; k <= (uint64_t{1} << 20); ++k) {
      const long double root = std::pow(static_cast<long double>(k), inv_e);
      double y = std::nextafter(std::nextafter(static_cast<double>(root), 0.0), 0.0);
      for (int step = 0; step < 5; ++step, y = std::nextafter(y, 4.0 * y)) {
        ASSERT_TRUE(check(y, k));
      }
      for (int j = 48; j >= 36; j -= 4) {
        const long double rel = std::ldexp(1.0L, -j) * inv_e;  // y^e moves by ~2^-j.
        ASSERT_TRUE(check(static_cast<double>(root * (1 + rel)), k));
        ASSERT_TRUE(check(static_cast<double>(root * (1 - rel)), k));
      }
    }
    std::printf("[ guard band ] s=%.2f answered=%llu fallbacks=%llu\n", s,
                static_cast<unsigned long long>(answered),
                static_cast<unsigned long long>(fallbacks));
    EXPECT_GT(fallbacks, 0u) << "s=" << s;
    EXPECT_GT(answered, 0u) << "s=" << s;
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

// PeriodicTouchBehavior::SampleVpn's shape: a weighted region pick by
// NextDouble, then a Zipf rank inside the region.
struct RegionDraw {
  ZipfDist zipf[2] = {ZipfDist(1000, 0.05), ZipfDist(300, 0.7)};
  uint64_t operator()(Rng& rng) const {
    uint64_t i = rng.NextDouble() * 1.0 >= 0.55 ? 1 : 0;
    return (i << 32) | zipf[i].Sample(rng);
  }
};

// Twin-seeded streams, one drawn through a look-ahead and one directly. The
// same random foreign draws land on both, before a Take or before a Fill,
// as another task's draws land between two quanta of a background burst.
// Every sample and every stream state must match the direct draws, and a
// look-ahead no foreign draw has touched since it was filled must be used.
TEST(RngLookahead, MatchesDirectDrawsUnderForeignDraws) {
  Rng live(77), direct(77), script(78);
  RngLookahead<uint64_t, 8> ahead;
  RegionDraw region_draw;
  int live_draws = 0;  // Draws Take() made on the live stream itself.
  auto draw = [&](Rng& rng) {
    live_draws += &rng == &live ? 1 : 0;
    return region_draw(rng);
  };
  // Returns whether it drew; draws the same on both streams.
  auto maybe_foreign = [&]() {
    if (!script.Chance(0.15)) {
      return false;
    }
    switch (script.Below(4)) {
      case 0:
        EXPECT_EQ(live.Next(), direct.Next());
        break;
      case 1:
        EXPECT_EQ(live.NextDouble(), direct.NextDouble());
        break;
      case 2: {
        uint32_t bound = 1 + script.Below(1000);
        EXPECT_EQ(live.Below(bound), direct.Below(bound));
        break;
      }
      default: {
        // An odd number of calls flips the cached Box-Muller value, which
        // can change the stream without moving the PCG state.
        int calls = 1 + 2 * static_cast<int>(script.Below(2));
        for (int c = 0; c < calls; ++c) {
          EXPECT_EQ(live.Gaussian(0.0, 1.0), direct.Gaussian(0.0, 1.0));
        }
        break;
      }
    }
    return true;
  };
  int commits = 0;
  int discards = 0;
  size_t filled = 0;
  for (int step = 0; step < 100000; ++step) {
    bool foreign = maybe_foreign();
    int draws_before = live_draws;
    ASSERT_EQ(ahead.Take(live, draw), region_draw(direct)) << "step " << step;
    ASSERT_EQ(StateBytes(live), StateBytes(direct)) << "step " << step;
    bool committed = live_draws == draws_before;
    if (!foreign && filled > 0) {
      ASSERT_TRUE(committed) << "an untouched look-ahead went unused at step " << step;
    }
    commits += committed ? 1 : 0;
    discards += !committed && filled > 0 ? 1 : 0;

    maybe_foreign();
    size_t want = script.Below(9);
    Rng before = live;
    size_t fresh = 0;
    ahead.Fill(live, want, draw, [&fresh](uint64_t) { ++fresh; });
    ASSERT_TRUE(live == before) << "Fill moved the live stream at step " << step;
    ASSERT_GE(ahead.size(), want);
    ASSERT_LE(ahead.size(), 8u);
    ASSERT_LE(fresh, want);
    filled = ahead.size();
  }
  EXPECT_EQ(StateBytes(live), StateBytes(direct));
  EXPECT_GT(commits, 50000);
  EXPECT_GT(discards, 10000);
}

// A buffered sample is handed out only from the exact state it was drawn
// from: PCG state alone is not enough when the cached Box-Muller value
// differs.
TEST(RngLookahead, CachedGaussianDiscardsTheBuffer) {
  Rng live(5);
  live.Gaussian(0.0, 1.0);  // Caches the second value.
  Rng direct = live;
  RngLookahead<uint64_t, 8> ahead;
  RegionDraw draw;
  ahead.Fill(live, 4, draw, [](uint64_t) {});
  // Consumes the cached value: the PCG state does not move.
  ASSERT_EQ(live.Gaussian(0.0, 1.0), direct.Gaussian(0.0, 1.0));
  EXPECT_EQ(ahead.Take(live, draw), draw(direct));
  EXPECT_EQ(ahead.size(), 0u);
  EXPECT_TRUE(live == direct);
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
