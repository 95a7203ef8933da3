// Streaming histogram / summary statistics used by the metrics layer.
#ifndef SRC_BASE_HISTOGRAM_H_
#define SRC_BASE_HISTOGRAM_H_

#include <cstddef>
#include <vector>

namespace ice {

// Keeps every sample; fine for the sample counts the experiments produce
// (at most a few hundred thousand frame latencies). Percentile sorts a
// scratch copy on each call.
class Histogram {
 public:
  Histogram() = default;

  void Add(double value) { values_.push_back(value); }
  void Clear() { values_.clear(); }

  size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  double Sum() const;
  double Mean() const;
  double Min() const;
  double Max() const;

  // q in [0, 1]; linear interpolation between closest ranks.
  double Percentile(double q) const;

  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

}  // namespace ice

#endif  // SRC_BASE_HISTOGRAM_H_
