// Deterministic pseudo-random number generation for the simulator.
//
// Every experiment owns exactly one Rng seeded from its configuration, so all
// results are bit-for-bit reproducible. The core generator is PCG32
// (O'Neill, 2014): small state, excellent statistical quality, and cheap
// enough for the simulator's hot paths.
#ifndef SRC_BASE_RNG_H_
#define SRC_BASE_RNG_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace ice {

class SnapshotArchive;

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x853c49e6748fea9bULL);

  // Uniform 32-bit value.
  uint32_t Next();

  // Uniform 64-bit value.
  uint64_t Next64();

  // Uniform in [0, bound) using Lemire's multiply-shift rejection method.
  uint32_t Below(uint32_t bound);

  // Uniform integer in [lo, hi] inclusive.
  int64_t Range(int64_t lo, int64_t hi);

  // Uniform double in [0, 1).
  double NextDouble();

  // True with probability p (clamped to [0, 1]).
  bool Chance(double p);

  // Gaussian via Box-Muller; mean/stddev in caller units.
  double Gaussian(double mean, double stddev);

  // Exponential with given mean (> 0).
  double Exponential(double mean);

  // Log-normal sample with the given median and sigma of the underlying
  // normal. Used for service-time jitter.
  double LogNormal(double median, double sigma);

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = Below(static_cast<uint32_t>(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  // Derives an independent child generator; used to give each module its own
  // stream without interleaving artifacts.
  Rng Fork();

  // Snapshot support: the complete generator state (PCG32 state/stream plus
  // the cached Box-Muller value), so a restored stream continues bit-exact.
  void Transfer(SnapshotArchive& ar);

  // Equal generators produce equal streams: same PCG32 state and stream and
  // the same cached Box-Muller value.
  bool operator==(const Rng&) const = default;

 private:
  uint64_t state_;
  uint64_t inc_;
  // Cached second Box-Muller value.
  bool has_gauss_ = false;
  double gauss_ = 0.0;
};

// floor(pow(y, e)) for y >= 1 by table, for one exponent e. With
// y = 2^k * m and m in [1, 2), y^e = 2^(k * e) * m^e: the table holds the
// octave factors 2^(k * e) and, on each of 64 segments of [1, 2), the
// degree-4 Taylor polynomial of m^e about the segment's midpoint, all computed
// in long double and rounded to double. bound() is a derived (not fitted)
// bound on the relative error of Approx(y) against the exact y^e: the
// polynomial's Lagrange remainder, the coefficients' rounding and the double
// evaluation's rounding (with or without FMA contraction), plus the octave
// factor's and the final product's. Floor(y) returns the rank only when
// every value within that bound, widened by a margin for libm's pow error,
// has the same floor, so it equals floor(std::pow(y, e)) bit for bit.
//
// Tables exist only for the exponents that carry the simulator's draws
// (s = 0.05, 0.55 and 0.7); each is an immutable namespace-scope constant,
// built during static initialization and shared by every ZipfDist with that
// exponent. A table not yet built reads as zeros, and Floor() then always
// answers 0 (call std::pow).
class PowTable {
 public:
  explicit PowTable(double e);

  // The table for exponent `e`, or nullptr when there is none.
  static const PowTable* For(double e);

  // floor(pow(y, e)) when the table proves it, else 0: y^e lies within the
  // guard band of an integer, y < 1, or y is beyond the table's octaves.
  uint64_t Floor(double y) const;

  // The table's approximation of y^e for y >= 1; 0 beyond its octaves.
  double Approx(double y) const;

  double exponent() const { return e_; }
  // Bound on |Approx(y) - y^e| / y^e over every y the table covers.
  double bound() const { return bound_; }
  // Octaves [0, octaves()) are covered; y^e stays below 2^62 there.
  int octaves() const { return octaves_; }

  static constexpr int kSegmentBits = 6;
  static constexpr int kSegments = 1 << kSegmentBits;
  static constexpr int kDegree = 4;
  static constexpr int kMaxOctaves = 64;

 private:
  double e_ = 0.0;
  double bound_ = 0.0;
  // 1 -/+ the guard band: the bound plus the pow margin plus the guard's
  // own rounding.
  double guard_lo_ = 0.0;
  double guard_hi_ = 0.0;
  int octaves_ = 0;
  std::array<double, kMaxOctaves> octave_{};  // 2^(k * e); 0 beyond octaves_.
  // Taylor coefficients a_0..a_4 in (m - midpoint), per segment.
  std::array<std::array<double, kDegree + 1>, kSegments> coef_{};
};

inline double PowTable::Approx(double y) const {
  constexpr int kOffsetBits = 52 - kSegmentBits;  // Mantissa bits below the segment.
  const uint64_t bits = std::bit_cast<uint64_t>(y);
  const uint64_t octave = (bits >> 52) - 1023;  // Wraps high for y < 1.
  if (octave >= kMaxOctaves) {
    return 0.0;
  }
  const std::array<double, kDegree + 1>& a = coef_[(bits >> kOffsetBits) % kSegments];
  // m - midpoint, exactly: the mantissa bits below the segment, re-centred.
  const int64_t offset = static_cast<int64_t>(bits & ((uint64_t{1} << kOffsetBits) - 1)) -
                         (int64_t{1} << (kOffsetBits - 1));
  const double d = static_cast<double>(offset) * 0x1p-52;
  return octave_[octave] * ((((a[4] * d + a[3]) * d + a[2]) * d + a[1]) * d + a[0]);
}

inline uint64_t PowTable::Floor(double y) const {
  const double x = Approx(y);  // 0 for a table not built yet.
  const int64_t lo = static_cast<int64_t>(x * guard_lo_);
  const int64_t hi = static_cast<int64_t>(x * guard_hi_);
  return lo == hi ? static_cast<uint64_t>(lo) : 0;
}

// Pareto-ish heavy tail used by working-set models: a rank in [0, n) where
// low ranks are much more likely (Zipf with exponent s), drawn by inverse
// CDF: rank = floor(pow(u * hn * (1 - s) + 1, 1 / (1 - s))) - 1. The
// per-(n, s) constants are computed once here, and the pow goes through the
// exponent's PowTable when there is one (s = 0.05, 0.55, 0.7), falling back
// to std::pow inside the table's guard band; s = 0.9 and other exponents
// always call std::pow, s == 1 calls exp. A draw costs one NextDouble. Ranks
// and generator states are bit-identical to evaluating the whole formula
// with two pows per draw: the draw keeps its association order, only hoists
// terms that do not depend on u, and takes a table rank only where it
// provably equals std::pow's.
class ZipfDist {
 public:
  // n = 0 or 1: every draw is rank 0 and consumes no randomness.
  ZipfDist() = default;
  ZipfDist(uint64_t n, double s);

  uint64_t Sample(Rng& rng) const;

 private:
  uint64_t n_ = 0;
  bool harmonic_ = false;  // s == 1: the rank is exp(u * log n) - 1.
  double h_ = 0.0;         // log n when harmonic_, else hn.
  double one_minus_s_ = 0.0;
  double inv_one_minus_s_ = 0.0;
  const PowTable* pow_ = nullptr;  // Shared table for inv_one_minus_s_, if any.
};

// Samples drawn ahead of time on a copy of a live stream, so a caller can
// start work on upcoming draws (prefetching what they will touch) before it
// consumes them. Take() hands out a buffered sample only while the live
// stream is in exactly the state that sample was drawn from, and then sets
// the live stream to the state the draw left behind. Any other draw on the
// live stream in between discards the buffer and Take() draws directly. The
// samples and the live stream are therefore bit-identical to drawing
// directly, whoever else shares the stream. `draw` must be a pure function
// of the stream state (`T draw(Rng&)`), the same one on every call.
template <typename T, size_t N>
class RngLookahead {
 public:
  // The next sample of `live`.
  template <typename Draw>
  T Take(Rng& live, Draw&& draw) {
    if (size_ == 0 || live != from_) {
      size_ = 0;
      return draw(live);
    }
    const Entry& e = ring_[head_];
    head_ = (head_ + 1) % N;
    --size_;
    from_ = e.after;
    live = e.after;
    return e.sample;
  }

  // Draws until `count` (at most N) samples of `live` are buffered and
  // calls `on_draw(sample)` for each new one. `live` does not move.
  template <typename Draw, typename OnDraw>
  void Fill(const Rng& live, size_t count, Draw&& draw, OnDraw&& on_draw) {
    if (size_ == 0 || live != from_) {
      size_ = 0;
      from_ = live;
    }
    if (size_ >= count) {
      return;
    }
    Rng next = size_ == 0 ? from_ : ring_[(head_ + size_ - 1) % N].after;
    for (; size_ < count && size_ < N; ++size_) {
      Entry& e = ring_[(head_ + size_) % N];
      e.sample = draw(next);
      e.after = next;
      on_draw(e.sample);
    }
  }

  void Clear() { size_ = 0; }
  size_t size() const { return size_; }

 private:
  struct Entry {
    T sample{};
    Rng after;  // The stream right after drawing `sample`.
  };
  std::array<Entry, N> ring_;
  Rng from_;  // The stream the front sample is drawn from.
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace ice

#endif  // SRC_BASE_RNG_H_
