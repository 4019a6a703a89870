#ifndef MSQL_OBS_HEALTH_H_
#define MSQL_OBS_HEALTH_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace msql::obs {

/// Derived availability of one incorporated service, computed from its
/// recent RPC history (DESIGN.md §11). The thresholds are deliberately
/// simple and deterministic:
///   - kUnreachable: the last `SiteHealth::kUnreachableAfter` calls all
///     failed — the coordinator should expect nothing from this LAM.
///   - kDegraded: at least one failure or timeout inside the rolling
///     window of the last `SiteHealth::kWindow` calls.
///   - kHealthy: everything else (including a site never called).
enum class HealthState { kHealthy, kDegraded, kUnreachable };

std::string_view HealthStateName(HealthState state);

/// Rolling per-service counters fed by the environment on every RPC.
class SiteHealth {
 public:
  /// Rolling window length (calls) the degraded verdict looks at.
  static constexpr int kWindow = 32;
  /// Consecutive failures after which the site is declared unreachable.
  static constexpr int kUnreachableAfter = 4;

  /// Records one finished call. `ok` is the coordinator's view (a
  /// timed-out call is not ok even if the LAM secretly executed it);
  /// `latency_micros` is the simulated time the coordinator waited.
  void Record(bool ok, bool timed_out, bool faulted, int64_t latency_micros);

  int64_t attempts() const { return attempts_; }
  int64_t failures() const { return failures_; }
  int64_t timeouts() const { return timeouts_; }
  int64_t faults() const { return faults_; }
  int64_t consecutive_failures() const { return consecutive_failures_; }
  int window_attempts() const;
  int window_failures() const;
  const Histogram& latency() const { return latency_; }

  HealthState state() const;

 private:
  int64_t attempts_ = 0;
  int64_t failures_ = 0;
  int64_t timeouts_ = 0;
  int64_t faults_ = 0;
  int64_t consecutive_failures_ = 0;
  Histogram latency_;
  /// Ring buffer of the last kWindow call verdicts (true = failed).
  std::array<bool, kWindow> window_failed_{};
  int window_size_ = 0;
  int window_next_ = 0;
};

/// Point-in-time copy of the whole registry — the one struct the text
/// renderer, the JSON renderer and the federation monitor all consume,
/// so every consumer sees the same quantile/state arithmetic.
struct HealthSnapshot {
  struct Service {
    std::string service;
    std::string site;
    HealthState state = HealthState::kHealthy;
    int64_t attempts = 0;
    int64_t failures = 0;
    int64_t timeouts = 0;
    int64_t faults = 0;
    int window_failures = 0;
    int window_attempts = 0;
    int64_t latency_p50 = 0;
    int64_t latency_p95 = 0;
    int64_t latency_p99 = 0;
  };
  /// Sorted by service name (the registry's iteration order).
  std::vector<Service> services;

  int degraded = 0;
  int unreachable = 0;
};

/// Per-site health monitor of the federation. Unlike the tracer and the
/// metrics registry this is always on: it costs a map lookup and a few
/// integer updates per RPC, and an operator's first question about a
/// misbehaving federation is "which backend is sick" — that answer must
/// not depend on having remembered to enable tracing beforehand.
class HealthRegistry {
 public:
  HealthRegistry() = default;

  HealthRegistry(const HealthRegistry&) = delete;
  HealthRegistry& operator=(const HealthRegistry&) = delete;

  void Clear() { sites_.clear(); }

  void Record(std::string_view service, std::string_view site, bool ok,
              bool timed_out, bool faulted, int64_t latency_micros);

  /// Health of `service`, or nullptr when it was never called.
  const SiteHealth* Get(std::string_view service) const;
  /// site name recorded for `service` ("" when never called).
  std::string_view SiteOf(std::string_view service) const;

  /// Everything a consumer needs in one copy, sorted by service.
  HealthSnapshot Snapshot() const;

  /// Deterministic table (sorted by service): state, totals, rolling
  /// window and latency quantiles — the shell's `\health`.
  std::string RenderText() const;

  /// The same snapshot as one JSON object — the shell's
  /// `\health --json` (obs/json_util escaping, fixed key order).
  std::string RenderJson() const;

 private:
  struct Entry {
    std::string site;
    SiteHealth health;
  };
  std::map<std::string, Entry, std::less<>> sites_;
};

}  // namespace msql::obs

#endif  // MSQL_OBS_HEALTH_H_
