#include "src/base/rng.h"

#include <cmath>

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
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) {  // Full 64-bit range.
    return static_cast<int64_t>(Next64());
  }
  if (span <= UINT32_MAX) {
    return lo + static_cast<int64_t>(Below(static_cast<uint32_t>(span)));
  }
  return lo + static_cast<int64_t>(Next64() % span);
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
  double x = std::pow(u * h_ * one_minus_s_ + 1.0, inv_one_minus_s_);
  uint64_t r = static_cast<uint64_t>(x) - (x >= 1.0 ? 1 : 0);
  return r >= n_ ? n_ - 1 : r;
}

}  // namespace ice
