#include "obs/metrics.h"

#include <algorithm>

namespace msql::obs {

namespace {

/// Bucket index of `value`: 0 for 0, else 1 + floor(log2(value)),
/// clamped to the last bucket.
int BucketOf(int64_t value) {
  if (value <= 0) return 0;
  int bucket = 1;
  while (value > 1 && bucket < Histogram::kBuckets - 1) {
    value >>= 1;
    ++bucket;
  }
  return bucket;
}

/// Inclusive upper bound of bucket `i` (0 for bucket 0).
int64_t BucketUpper(int i) {
  if (i <= 0) return 0;
  if (i >= 63) return INT64_MAX;
  return (int64_t{1} << i) - 1;
}

}  // namespace

void Histogram::Observe(int64_t value) {
  value = std::max<int64_t>(value, 0);
  buckets_[static_cast<size_t>(BucketOf(value))] += 1;
  if (count_ == 0 || value < min_) min_ = value;
  if (value > max_) max_ = value;
  ++count_;
  sum_ += value;
}

int64_t Histogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  int64_t rank = static_cast<int64_t>(q * static_cast<double>(count_ - 1));
  int64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[static_cast<size_t>(i)];
    if (seen > rank) return std::min(BucketUpper(i), max_);
  }
  return max_;
}

void MetricsRegistry::Inc(std::string_view name, int64_t delta) {
  if (!enabled_) return;
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

void MetricsRegistry::Observe(std::string_view name, int64_t value) {
  if (!enabled_) return;
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Histogram{}).first;
  }
  it->second.Observe(value);
}

int64_t MetricsRegistry::Get(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

const Histogram* MetricsRegistry::GetHistogram(std::string_view name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::string MetricsRegistry::Dump() const {
  std::string out;
  for (const auto& [name, value] : counters_) {
    out += name + " = " + std::to_string(value) + "\n";
  }
  for (const auto& [name, h] : histograms_) {
    out += name + ": count=" + std::to_string(h.count()) +
           " sum=" + std::to_string(h.sum()) +
           " min=" + std::to_string(h.min()) +
           " p50=" + std::to_string(h.Quantile(0.5)) +
           " p95=" + std::to_string(h.Quantile(0.95)) +
           " p99=" + std::to_string(h.Quantile(0.99)) +
           " max=" + std::to_string(h.max()) + "\n";
  }
  return out;
}

}  // namespace msql::obs
