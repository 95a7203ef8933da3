// Fixed-bucket log-scaled histogram built for population-scale aggregation.
//
// The exact `Histogram` keeps every sample, which is fine for a single run
// but cannot scale to a fleet: 100k devices x 1k frame latencies would hold
// 1e8 doubles. MergeHistogram instead holds a fixed bucket array — B
// log-spaced buckets over [lo, hi) plus an underflow and an overflow bucket
// — so memory is O(B) regardless of sample count, and two histograms over
// the same bucket shape merge by adding counts.
//
// Determinism contract: bucket counts, count and min/max merge with integer
// adds and compares, so they are independent of merge order. The running sum
// is a double, whose low bits depend on addition order — aggregations that
// must be byte-stable therefore fold partials in a fixed order (the fleet
// runner folds per-chunk partials in chunk-index order; see DESIGN.md
// "Fleet"). Percentiles depend only on bucket counts and min/max, so they
// are merge-order independent.
#ifndef SRC_BASE_MERGE_HISTOGRAM_H_
#define SRC_BASE_MERGE_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ice {

class SnapshotArchive;

class MergeHistogram {
 public:
  struct Options {
    double lo = 1.0;       // Lower edge of the first finite bucket.
    double hi = 1e9;       // Values >= hi land in the overflow bucket.
    uint32_t buckets = 64; // Log-spaced buckets between lo and hi.
  };

  MergeHistogram() : MergeHistogram(Options{}) {}
  explicit MergeHistogram(const Options& options);

  void Add(double value);

  // Adds another histogram's contents. Both must share the same Options
  // (checked); see the header comment for the merge-order contract.
  void Merge(const MergeHistogram& other);
  bool SameShape(const MergeHistogram& other) const;

  const Options& options() const { return options_; }
  uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double Sum() const { return sum_; }
  double Min() const;  // 0 when empty.
  double Max() const;  // 0 when empty.

  // q in [0, 1]; linear interpolation inside the selected bucket, clamped to
  // the observed [Min, Max]. Accurate to one bucket's width, i.e. a relative
  // error of at most (hi/lo)^(1/buckets) - 1 for in-range values.
  double Percentile(double q) const;

  // Bucket introspection (index 0 = underflow, 1..buckets = finite,
  // buckets+1 = overflow).
  size_t num_buckets() const { return counts_.size(); }
  uint64_t bucket_count(size_t index) const { return counts_[index]; }
  // Value range [lower, upper) the bucket covers; the underflow/overflow
  // edges are reported as the observed min/max.
  double bucket_lower(size_t index) const;
  double bucket_upper(size_t index) const;
  size_t BucketFor(double value) const;

  // Snapshot support: writes the shape (checked on restore — a histogram
  // only restores into one constructed with the same Options) plus counts
  // and running aggregates. bounds_ are recomputed by the constructor, so
  // they are not serialized.
  void Transfer(SnapshotArchive& ar);

 private:
  Options options_;
  std::vector<double> bounds_;   // buckets + 1 edges over [lo, hi].
  std::vector<uint64_t> counts_; // buckets + 2 (underflow / finite / overflow).
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace ice

#endif  // SRC_BASE_MERGE_HISTOGRAM_H_
