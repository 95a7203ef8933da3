// Deterministic pseudo-random number generation for the simulator.
//
// Every experiment owns exactly one Rng seeded from its configuration, so all
// results are bit-for-bit reproducible. The core generator is PCG32
// (O'Neill, 2014): small state, excellent statistical quality, and cheap
// enough for the simulator's hot paths.
#ifndef SRC_BASE_RNG_H_
#define SRC_BASE_RNG_H_

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

 private:
  uint64_t state_;
  uint64_t inc_;
  // Cached second Box-Muller value.
  bool has_gauss_ = false;
  double gauss_ = 0.0;
};

// Pareto-ish heavy tail used by working-set models: a rank in [0, n) where
// low ranks are much more likely (Zipf with exponent s), drawn by inverse
// CDF. The per-(n, s) constants are computed once here, so a draw costs one
// NextDouble and one pow (an exp when s == 1). Ranks are bit-identical to
// evaluating the whole formula per draw: the draw keeps its association
// order and only hoists terms that do not depend on u.
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
};

}  // namespace ice

#endif  // SRC_BASE_RNG_H_
