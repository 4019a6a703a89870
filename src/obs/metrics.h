#ifndef MSQL_OBS_METRICS_H_
#define MSQL_OBS_METRICS_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace msql::obs {

/// Log2-bucketed histogram of non-negative int64 samples (simulated
/// microseconds, byte counts, attempt counts, ...). Bucket i holds
/// values in [2^(i-1), 2^i) with bucket 0 holding {0}; quantiles are
/// answered from bucket upper bounds, which is deterministic and good
/// to a factor of two — plenty for "where does the makespan go".
class Histogram {
 public:
  static constexpr int kBuckets = 63;

  void Observe(int64_t value);

  int64_t count() const { return count_; }
  int64_t sum() const { return sum_; }
  int64_t min() const { return count_ == 0 ? 0 : min_; }
  int64_t max() const { return max_; }
  /// Upper bound of the bucket holding the q-quantile (q in [0, 1]).
  int64_t Quantile(double q) const;

 private:
  std::array<int64_t, kBuckets> buckets_{};
  int64_t count_ = 0;
  int64_t sum_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
};

/// Federation-wide counters and histograms, keyed by dotted names
/// ("net.messages", "rpc.sim_micros"). Like the tracer this is a null
/// sink until enabled; unlike the tracer it stays cheap even when on —
/// a map lookup per update — because the benches keep it enabled.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  void Inc(std::string_view name, int64_t delta = 1);
  void Observe(std::string_view name, int64_t value);

  /// Counter value (0 when absent).
  int64_t Get(std::string_view name) const;
  /// Histogram by name (nullptr when absent).
  const Histogram* GetHistogram(std::string_view name) const;

  /// Copy of all counters at this instant. The profiler diffs two
  /// snapshots to attribute counter growth to one MSQL input.
  std::map<std::string, int64_t, std::less<>> CounterSnapshot() const {
    return counters_;
  }

  /// Sorted, deterministic text dump: counters, then histograms with
  /// count/sum/min/p50/p95/p99/max columns (quantiles are log2-bucket
  /// upper bounds — good to a factor of two).
  std::string Dump() const;

 private:
  bool enabled_ = false;
  std::map<std::string, int64_t, std::less<>> counters_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace msql::obs

#endif  // MSQL_OBS_METRICS_H_
