#include "src/base/histogram.h"

#include <algorithm>

namespace ice {

double Histogram::Sum() const {
  double s = 0.0;
  for (double v : values_) {
    s += v;
  }
  return s;
}

double Histogram::Mean() const { return values_.empty() ? 0.0 : Sum() / values_.size(); }

double Histogram::Min() const {
  return values_.empty() ? 0.0 : *std::min_element(values_.begin(), values_.end());
}

double Histogram::Max() const {
  return values_.empty() ? 0.0 : *std::max_element(values_.begin(), values_.end());
}

double Histogram::Percentile(double q) const {
  if (values_.empty()) {
    return 0.0;
  }
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  q = std::clamp(q, 0.0, 1.0);
  double rank = q * (sorted.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = rank - lo;
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace ice
