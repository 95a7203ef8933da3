#include "src/base/rng.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/base/binary_stream.h"
#include "src/base/log.h"

namespace ice {

namespace {
// SplitMix64, used to expand the user seed into PCG state.
uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t s = seed;
  state_ = SplitMix64(s);
  inc_ = SplitMix64(s) | 1ULL;  // Stream selector must be odd.
  Next();
}

uint32_t Rng::Next() {
  uint64_t old = state_;
  state_ = old * 6364136223846793005ULL + inc_;
  uint32_t xorshifted = static_cast<uint32_t>(((old >> 18u) ^ old) >> 27u);
  uint32_t rot = static_cast<uint32_t>(old >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((32 - rot) & 31));
}

uint64_t Rng::Next64() {
  return (static_cast<uint64_t>(Next()) << 32) | Next();
}

uint32_t Rng::Below(uint32_t bound) {
  if (bound <= 1) {
    return 0;
  }
  // Lemire's method with rejection for exact uniformity.
  uint64_t m = static_cast<uint64_t>(Next()) * bound;
  uint32_t l = static_cast<uint32_t>(m);
  if (l < bound) {
    uint32_t t = -bound % bound;
    while (l < t) {
      m = static_cast<uint64_t>(Next()) * bound;
      l = static_cast<uint32_t>(m);
    }
  }
  return static_cast<uint32_t>(m >> 32);
}

int64_t Rng::Range(int64_t lo, int64_t hi) {
  ICE_CHECK_LE(lo, hi);
  // Unsigned arithmetic: the span and lo + offset wrap instead of
  // overflowing once the span exceeds INT64_MAX.
  uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
  if (span == 0) {  // Full 64-bit range.
    return static_cast<int64_t>(Next64());
  }
  uint64_t offset = span <= UINT32_MAX ? Below(static_cast<uint32_t>(span)) : Next64() % span;
  return static_cast<int64_t>(static_cast<uint64_t>(lo) + offset);
}

double Rng::NextDouble() {
  // 53 random mantissa bits.
  return static_cast<double>(Next64() >> 11) * (1.0 / 9007199254740992.0);
}

bool Rng::Chance(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return NextDouble() < p;
}

double Rng::Gaussian(double mean, double stddev) {
  if (has_gauss_) {
    has_gauss_ = false;
    return mean + stddev * gauss_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-12);
  double u2 = NextDouble();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  gauss_ = r * std::sin(theta);
  has_gauss_ = true;
  return mean + stddev * r * std::cos(theta);
}

double Rng::Exponential(double mean) {
  ICE_CHECK_GT(mean, 0.0);
  double u = 0.0;
  do {
    u = NextDouble();
  } while (u <= 1e-12);
  return -mean * std::log(u);
}

double Rng::LogNormal(double median, double sigma) {
  ICE_CHECK_GT(median, 0.0);
  return median * std::exp(Gaussian(0.0, sigma));
}

Rng Rng::Fork() { return Rng(Next64()); }

void Rng::Transfer(SnapshotArchive& ar) {
  ar.U64(state_);
  ar.U64(inc_);
  ar.Bool(has_gauss_);
  ar.F64(gauss_);
}

PowTable::PowTable(double e) : e_(e) {
  const long double el = e;
  const long double u = 0x1p-53L;           // Unit roundoff of double.
  const long double half = 0.5L / kSegments;  // Half a segment: |m - midpoint| <= half.
  // powl and exp2l are accurate to a few long double ULPs; this slack (16
  // ULPs: 2^-60 with x87's 64-bit mantissa) covers them and the bound's own
  // long double arithmetic, also where long double is just double.
  const long double slack = std::ldexp(1.0L, 4 - std::numeric_limits<long double>::digits);
  // Horner's rule in double for degree 4 errs by at most gamma_8 times
  // sum |a_i| |d|^i (Higham, Accuracy and Stability, eq. 5.3); FMA
  // contraction only removes roundings.
  const long double gamma = 8 * u / (1 - 8 * u);
  std::array<long double, kDegree + 2> binom{};  // C(e, i)
  binom[0] = 1;
  for (int i = 1; i <= kDegree + 1; ++i) {
    binom[i] = binom[i - 1] * (el - (i - 1)) / i;
  }
  long double poly = 0;  // Worst relative error of a segment's polynomial.
  for (int j = 0; j < kSegments; ++j) {
    const long double mid = 1 + (j + 0.5L) / kSegments;
    long double rounding = 0;   // Coefficient rounding, times |d|^i.
    long double magnitude = 0;  // sum |a_i| |d|^i for the rounded a_i.
    long double hi = 1;         // half^i
    for (int i = 0; i <= kDegree; ++i) {
      const long double a = binom[i] * std::pow(mid, el - i);
      coef_[j][i] = static_cast<double>(a);
      rounding += (std::fabs(coef_[j][i] - a) + slack * std::fabs(a)) * hi;
      magnitude += std::fabs(coef_[j][i]) * hi;
      hi *= half;
    }
    // Lagrange remainder: C(e, 5) xi^(e - 5) d^5 for some xi in the segment;
    // a power of xi is largest at one of the segment's ends.
    const long double lo_end = mid - half;
    const long double xi_power = std::max(std::pow(lo_end, el - 5), std::pow(mid + half, el - 5));
    const long double remainder = std::fabs(binom[kDegree + 1]) * hi * xi_power;
    // m^e is smallest at the segment's lower end (e > 0).
    poly = std::max(poly, (remainder + rounding + gamma * magnitude) / std::pow(lo_end, el));
  }
  // The octave factor and the final product each round once more. Octaves
  // stop where y^e could reach 2^62, so Floor's conversions stay in range.
  while (octaves_ < kMaxOctaves && (octaves_ + 1) * el <= 62) {
    octave_[octaves_] = static_cast<double>(std::exp2(octaves_ * el));
    ++octaves_;
  }
  const long double total = (1 + poly) * (1 + u + slack) * (1 + u) - 1;
  bound_ = static_cast<double>(total * (1 + 0x1p-20L));  // Rounded up.
  // pow(y, e) is within the margin of y^e: glibc documents less than one
  // ULP (2^-52 relative), this allows 64. Floor(y) is decided only when
  // every x with |x - Approx(y)| <= band * Approx(y) has one floor; the 4u
  // covers rounding 1 -/+ band and the guard's products.
  const long double pow_margin = 0x1p-46L;
  const long double band = (bound_ + pow_margin) / (1 - bound_) + 4 * u;
  guard_lo_ = static_cast<double>(1 - band);
  guard_hi_ = static_cast<double>(1 + band);
}

namespace {
// The exponents 1 / (1 - s) that carry the simulator's draws, computed as
// ZipfDist computes them: s = 0.05 (GC and sync bursts), 0.55 (the
// foreground scenario's hot pages) and 0.7 (service bursts).
const PowTable kPowTables[] = {
    PowTable(1.0 / (1.0 - 0.05)),
    PowTable(1.0 / (1.0 - 0.55)),
    PowTable(1.0 / (1.0 - 0.7)),
};
}  // namespace

const PowTable* PowTable::For(double e) {
  for (const PowTable& table : kPowTables) {
    if (table.e_ == e) {
      return &table;
    }
  }
  return nullptr;
}

ZipfDist::ZipfDist(uint64_t n, double s) : n_(n) {
  if (n_ <= 1) {
    return;
  }
  // Inverse-CDF approximation for the continuous Zipf/Pareto distribution.
  // Exact for s == 1 up to normalization; adequate for skewed access models.
  harmonic_ = s == 1.0;
  if (harmonic_) {
    h_ = std::log(static_cast<double>(n_));
    return;
  }
  one_minus_s_ = 1.0 - s;
  inv_one_minus_s_ = 1.0 / one_minus_s_;
  h_ = (std::pow(static_cast<double>(n_), one_minus_s_) - 1.0) / one_minus_s_;
  pow_ = PowTable::For(inv_one_minus_s_);
}

uint64_t ZipfDist::Sample(Rng& rng) const {
  if (n_ <= 1) {
    return 0;
  }
  double u = rng.NextDouble();
  if (harmonic_) {
    uint64_t r = static_cast<uint64_t>(std::exp(u * h_)) - 1;
    return r >= n_ ? n_ - 1 : r;
  }
  // Same association order as the unhoisted formula: (u * hn) * (1 - s).
  double y = u * h_ * one_minus_s_ + 1.0;
  // The table's floor is at least 1 whenever it answers (y >= 1).
  uint64_t r = pow_ != nullptr ? pow_->Floor(y) : 0;
  if (r != 0) {
    --r;
  } else {
    double x = std::pow(y, inv_one_minus_s_);
    r = static_cast<uint64_t>(x) - (x >= 1.0 ? 1 : 0);
  }
  return r >= n_ ? n_ - 1 : r;
}

}  // namespace ice
