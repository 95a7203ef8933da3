// Golden references for Zipf draws, shared by the unit and property suites.
#ifndef TESTS_BASE_ZIPF_REFERENCE_H_
#define TESTS_BASE_ZIPF_REFERENCE_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "src/base/binary_stream.h"
#include "src/base/rng.h"

namespace ice {

// The rank formula as Rng::Zipf evaluated it before ZipfDist hoisted the
// per-(n, s) constants: both pows on every draw. Kept as the golden
// reference, because simulation outputs depend on every rank bit.
inline uint64_t ReferenceZipf(Rng& rng, uint64_t n, double s) {
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

// The generator's snapshot bytes: equal bytes, equal streams.
inline std::vector<uint8_t> StateBytes(Rng& rng) {
  BinaryWriter w;
  SnapshotArchive ar(w);
  rng.Transfer(ar);
  return w.Finish();
}

}  // namespace ice

#endif  // TESTS_BASE_ZIPF_REFERENCE_H_
