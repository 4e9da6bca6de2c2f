#include "src/metrics/histogram.h"

#include <algorithm>
#include <bit>

namespace cclbt::metrics {

Histogram::Histogram() : buckets_(kNumBuckets, 0) {}

int Histogram::BucketFor(uint64_t value) {
  if (value < (1ULL << kSubBucketBits)) {
    return static_cast<int>(value);  // Exact buckets for small values.
  }
  int log2 = 63 - std::countl_zero(value);
  int shift = log2 - kSubBucketBits;
  uint64_t sub = (value >> shift) - (1ULL << kSubBucketBits);
  int bucket = ((shift + 1) << kSubBucketBits) + static_cast<int>(sub);
  return std::min(bucket, kNumBuckets - 1);
}

uint64_t Histogram::BucketUpperBound(int bucket) {
  if (bucket < (1 << kSubBucketBits)) {
    return static_cast<uint64_t>(bucket);
  }
  int shift = (bucket >> kSubBucketBits) - 1;
  uint64_t sub = static_cast<uint64_t>(bucket & ((1 << kSubBucketBits) - 1));
  // 128-bit intermediate with saturation: the widest reachable bucket's bound
  // is exactly 2^64-1, and bounds of unreachable tail buckets clamp there
  // instead of wrapping (the open-ended-max-bucket bug this class fixes).
  unsigned __int128 bound =
      ((static_cast<unsigned __int128>((1ULL << kSubBucketBits) + sub + 1)) << shift) - 1;
  if (bound > static_cast<unsigned __int128>(~0ULL)) {
    return ~0ULL;
  }
  return static_cast<uint64_t>(bound);
}

uint64_t Histogram::MaxTrackable() { return BucketUpperBound(kNumBuckets - 1); }

void Histogram::Record(uint64_t value, uint64_t weight) {
  if (weight == 0) {
    return;
  }
  buckets_[static_cast<size_t>(BucketFor(value))] += weight;
  count_ += weight;
  sum_ += value * weight;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void Histogram::Merge(const Histogram& other) {
  for (int i = 0; i < kNumBuckets; i++) {
    buckets_[static_cast<size_t>(i)] += other.buckets_[static_cast<size_t>(i)];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

Histogram Histogram::Delta(const Histogram& earlier) const {
  Histogram d;
  int lowest = -1;
  int highest = -1;
  for (int i = 0; i < kNumBuckets; i++) {
    uint64_t n = buckets_[static_cast<size_t>(i)] - earlier.buckets_[static_cast<size_t>(i)];
    d.buckets_[static_cast<size_t>(i)] = n;
    if (n != 0) {
      if (lowest < 0) {
        lowest = i;
      }
      highest = i;
    }
  }
  d.count_ = count_ - earlier.count_;
  d.sum_ = sum_ - earlier.sum_;
  if (highest >= 0) {
    // Window extremes are not recoverable from cumulative min/max; use the
    // quantized bucket bounds (deterministic, within one sub-bucket of truth).
    d.min_ = lowest == 0 ? 0 : BucketUpperBound(lowest - 1) + 1;
    d.max_ = BucketUpperBound(highest);
  }
  return d;
}

uint64_t Histogram::Percentile(double p) const {
  if (count_ == 0) {
    return 0;
  }
  if (p <= 0.0) {
    return min_;
  }
  auto rank = static_cast<uint64_t>(p / 100.0 * static_cast<double>(count_));
  rank = std::min(rank, count_ - 1);
  uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; i++) {
    seen += buckets_[static_cast<size_t>(i)];
    if (seen > rank) {
      return std::min(std::max(BucketUpperBound(i), min_), max_);
    }
  }
  return max_;
}

double Histogram::Mean() const {
  return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
}

void Histogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = ~0ULL;
  max_ = 0;
}

}  // namespace cclbt::metrics
