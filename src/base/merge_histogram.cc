#include "src/base/merge_histogram.h"

#include <algorithm>
#include <cmath>

#include "src/base/binary_stream.h"
#include "src/base/log.h"

namespace ice {

MergeHistogram::MergeHistogram(const Options& options) : options_(options) {
  ICE_CHECK_GT(options_.lo, 0.0);
  ICE_CHECK_GT(options_.hi, options_.lo);
  ICE_CHECK_GE(options_.buckets, 1u);
  bounds_.resize(options_.buckets + 1);
  const double log_ratio = std::log(options_.hi / options_.lo);
  for (uint32_t i = 0; i <= options_.buckets; ++i) {
    bounds_[i] = options_.lo *
                 std::exp(log_ratio * static_cast<double>(i) /
                          static_cast<double>(options_.buckets));
  }
  // Pin the endpoints exactly so BucketFor's range checks and the bucket
  // edges agree bit-for-bit.
  bounds_.front() = options_.lo;
  bounds_.back() = options_.hi;
  counts_.assign(options_.buckets + 2, 0);
}

size_t MergeHistogram::BucketFor(double value) const {
  if (!(value >= options_.lo)) {  // Also routes NaN to underflow.
    return 0;
  }
  if (value >= options_.hi) {
    return counts_.size() - 1;
  }
  // First edge strictly greater than value; bucket i covers
  // [bounds_[i-1], bounds_[i]).
  return static_cast<size_t>(
      std::upper_bound(bounds_.begin(), bounds_.end(), value) - bounds_.begin());
}

void MergeHistogram::Add(double value) {
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  ++counts_[BucketFor(value)];
}

bool MergeHistogram::SameShape(const MergeHistogram& other) const {
  return options_.lo == other.options_.lo && options_.hi == other.options_.hi &&
         options_.buckets == other.options_.buckets;
}

void MergeHistogram::Merge(const MergeHistogram& other) {
  ICE_CHECK(SameShape(other)) << "merging histograms with different bucket shapes";
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  for (size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
}

double MergeHistogram::Min() const { return count_ == 0 ? 0.0 : min_; }

double MergeHistogram::Max() const { return count_ == 0 ? 0.0 : max_; }

double MergeHistogram::bucket_lower(size_t index) const {
  if (index == 0) {
    return Min();
  }
  if (index == counts_.size() - 1) {
    return bounds_.back();
  }
  return bounds_[index - 1];
}

double MergeHistogram::bucket_upper(size_t index) const {
  if (index == 0) {
    return bounds_.front();
  }
  if (index == counts_.size() - 1) {
    return Max();
  }
  return bounds_[index];
}

double MergeHistogram::Percentile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the requested sample among [0, count). Buckets are walked
  // cumulatively; within the selected bucket the value is interpolated
  // between the bucket edges (clamped to the observed range).
  const double rank = q * static_cast<double>(count_ - 1);
  uint64_t cum = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    const uint64_t n = counts_[i];
    if (n == 0) {
      continue;
    }
    if (rank < static_cast<double>(cum + n)) {
      double lower = std::max(bucket_lower(i), Min());
      double upper = std::min(bucket_upper(i), Max());
      if (upper < lower) {
        upper = lower;
      }
      const double frac =
          (rank - static_cast<double>(cum) + 0.5) / static_cast<double>(n);
      return lower + std::clamp(frac, 0.0, 1.0) * (upper - lower);
    }
    cum += n;
  }
  return Max();
}

void MergeHistogram::Transfer(SnapshotArchive& ar) {
  ar.Expect<double>(options_.lo, "histogram lower edge");
  ar.Expect<double>(options_.hi, "histogram upper edge");
  ar.Expect<uint32_t>(options_.buckets, "histogram bucket count");
  for (uint64_t& c : counts_) {
    ar.U64(c);
  }
  ar.U64(count_);
  ar.F64(sum_);
  ar.F64(min_);
  ar.F64(max_);
}

}  // namespace ice
