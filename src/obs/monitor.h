#ifndef MSQL_OBS_MONITOR_H_
#define MSQL_OBS_MONITOR_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/trace.h"

namespace msql::obs {

/// Knobs of the federation monitor (DESIGN.md §16). Every duration is
/// simulated microseconds: the monitor lives entirely on the netsim
/// clock, so its windows, alerts and dashboards are deterministic under
/// a fixed seed. An SLO knob at its "disabled" sentinel (0 for
/// latencies, negative for rates/counts) turns that rule off.
struct MonitorConfig {
  /// Width of one sampling window.
  int64_t window_micros = 1'000'000;
  /// Closed windows retained in the ring buffer.
  int capacity = 128;

  // -- SLOs ---------------------------------------------------------------
  /// p99 of session makespans finishing inside one window (0 = off).
  int64_t slo_p99_latency_micros = 0;
  /// Share of sessions finishing inside one window that ended in an
  /// error/abort (< 0 = off). Windows with no finished sessions pass.
  double slo_max_error_rate = -1.0;
  /// Deadlock victims per window (< 0 = off).
  int64_t slo_max_deadlock_victims = -1;
  /// Buffer-pool hit rate pin_hits/(pin_hits + page_reads) per window
  /// (< 0 = off). Windows with no pool traffic pass.
  double slo_min_pool_hit_rate = -1.0;
  /// Every incorporated site must stay reachable: a window during
  /// which any service is in HealthState::kUnreachable violates.
  bool slo_sites_reachable = true;

  // -- Error budgets ------------------------------------------------------
  /// Sliding horizon (closed windows) each SLO's budget is counted
  /// over.
  int budget_horizon_windows = 32;
  /// Violating windows tolerated inside the horizon, as a fraction
  /// (allowed = max(1, floor(fraction * horizon))). Beyond that the
  /// budget is exhausted.
  double slo_budget_fraction = 0.1;

  // -- EWMA drift rules ---------------------------------------------------
  // The running mean / mean-absolute-deviation smooth with factor 0.3.
  /// A sample further than factor * max(deviation, 5% of mean) from
  /// the mean fires a drift alert.
  double ewma_drift_factor = 3.0;
  /// Non-empty windows the EWMA must have seen before it may fire.
  int ewma_min_windows = 8;

  // -- Admission feedback -------------------------------------------------
  /// Consecutive windows without any SLO violation required before
  /// shedding is released.
  int recover_after_clean_windows = 2;
};

/// One closed sampling window: session outcomes accumulated while it
/// was current, counter growth against the previous window's snapshot,
/// gauge values and the health census at close time.
struct MonitorWindow {
  /// 1-based position in the monitor's lifetime (survives ring
  /// eviction).
  int64_t seq = 0;
  int64_t start_micros = 0;
  int64_t end_micros = 0;

  // Session outcomes finishing inside the window.
  int64_t sessions_finished = 0;
  int64_t sessions_ok = 0;
  int64_t sessions_error = 0;
  int64_t deadlock_victims = 0;
  int64_t lock_timeouts = 0;
  /// Finished sessions whose admission had been shed-delayed.
  int64_t sessions_shed = 0;
  /// Quantiles of the makespans finishing inside the window (log2
  /// bucket upper bounds, 0 when no session finished).
  int64_t p50_latency_micros = 0;
  int64_t p99_latency_micros = 0;
  /// sessions_error / sessions_finished (0 when none finished).
  double error_rate = 0.0;

  // Buffer pool traffic (storage.* counter growth inside the window).
  int64_t page_reads = 0;
  int64_t page_writes = 0;
  int64_t evictions = 0;
  int64_t pin_hits = 0;
  /// pin_hits / (pin_hits + page_reads); 1 when the window had no pool
  /// traffic.
  double pool_hit_rate = 1.0;

  // Health census at close time.
  int sites_total = 0;
  int sites_degraded = 0;
  int sites_unreachable = 0;

  /// Full counter growth (after − before) inside the window.
  std::map<std::string, int64_t> counter_deltas;
  /// Gauge values last set before the close.
  std::map<std::string, double> gauges;
  /// Shed state after this window's rules were evaluated.
  bool shedding = false;
};

/// One deterministic alert transition. `fired` distinguishes raise from
/// resolve; rules raise at most once until they resolve, so the stream
/// reads as a well-formed bracket sequence.
struct AlertEvent {
  /// Close time of the window that produced the transition.
  int64_t at_micros = 0;
  int64_t window_seq = 0;
  /// "slo.p99_latency", "budget.error_rate", "ewma.p99_latency",
  /// "admission.shed", ...
  std::string rule;
  /// Rule family: "threshold" | "budget" | "ewma" | "admission".
  std::string kind;
  /// "info" | "warn" | "critical".
  std::string severity;
  bool fired = true;
  /// Observed value and the limit it was judged against.
  double value = 0.0;
  double limit = 0.0;
  std::string detail;

  /// Single-line JSON object, keys in fixed order (numbers rendered
  /// with FormatMetricNumber, so the line is byte-deterministic).
  std::string ToJson() const;
};

/// Budget accounting of one SLO rule over the sliding horizon.
struct SloStatus {
  std::string name;
  bool enabled = false;
  /// Limit the per-window value is compared against.
  double limit = 0.0;
  /// Value observed in the most recently closed window (NaN-free: 0
  /// when the rule skipped the window).
  double last_value = 0.0;
  /// Violating windows inside the horizon / allowed by the budget.
  int violations_in_horizon = 0;
  int allowed_in_horizon = 0;
  int64_t total_violations = 0;
  /// "ok" (no violations in horizon), "burning" (some, within budget),
  /// "exhausted" (budget overrun).
  std::string state = "ok";
};

/// Continuous federation monitor: samples the metrics registry, the
/// health registry and the scheduler's session stream on the simulated
/// clock into fixed-width windows, keeps SLO error budgets, evaluates
/// deterministic alert rules (static thresholds + EWMA drift) and
/// drives the adaptive-admission feedback loop (DESIGN.md §16).
///
/// Everything is simulation-clock based: under a fixed seed the window
/// series, the alert stream, both dashboard renderings and the Perfetto
/// counter tracks are byte-identical run to run.
class Monitor {
 public:
  /// `metrics` and `health` may be null (those columns read as empty).
  /// Neither is owned; both must outlive the monitor.
  Monitor(MonitorConfig config, const MetricsRegistry* metrics,
          const HealthRegistry* health);

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  const MonitorConfig& config() const { return config_; }

  /// Alert events are additionally appended to `log`'s JSONL stream as
  /// they fire (null to stop). Not owned.
  void set_query_log(QueryLog* log) { query_log_ = log; }

  // -- Feeding ------------------------------------------------------------

  /// One finished session. Closes any windows the finish time has
  /// passed, then accumulates into the current one.
  struct SessionSample {
    int64_t finish_micros = 0;
    int64_t makespan_micros = 0;
    bool ok = false;
    bool deadlock_victim = false;
    bool lock_timeout = false;
    /// Admission of this session had been shed-delayed.
    bool was_shed = false;
  };
  void RecordSession(const SessionSample& sample);

  /// Instantaneous value sampled into each window at close time
  /// ("sessions.active", ...). Sticky until set again.
  void SetGauge(std::string_view name, double value);

  /// True when `now` has passed the current window's end — the cheap
  /// check callers gate AdvanceTo behind on hot paths.
  bool NeedsSample(int64_t now) const {
    return now >= window_start_ + config_.window_micros;
  }

  /// Closes every window whose end `now` has reached (evaluating SLOs,
  /// budgets, EWMA rules and the shed state machine per close).
  /// Monotone: earlier times are a no-op.
  void AdvanceTo(int64_t now);

  /// Closes the current window early at `now` if it saw any sessions —
  /// the end-of-batch flush so a final partial window is not lost.
  void Flush(int64_t now);

  // -- State --------------------------------------------------------------

  /// The admission feedback signal: true while an exhausted SLO budget
  /// has not yet been followed by `recover_after_clean_windows` clean
  /// windows.
  bool shedding() const { return shedding_; }
  /// Times shedding engaged over the monitor's lifetime.
  int64_t shed_engagements() const { return shed_engagements_; }
  /// All closed windows still in the ring (oldest first).
  const std::deque<MonitorWindow>& windows() const { return windows_; }
  int64_t windows_closed() const { return next_seq_ - 1; }
  const std::vector<AlertEvent>& alerts() const { return alerts_; }
  /// Budget accounting of every configured SLO, in declaration order.
  std::vector<SloStatus> SloStatuses() const;

  // -- Rendering ----------------------------------------------------------

  /// Deterministic operator dashboard: SLO budgets, shed state, recent
  /// windows and alert tail (the shell's `\watch`).
  std::string RenderDashboardText() const;
  /// The same dashboard as one JSON object.
  std::string RenderDashboardJson() const;
  /// Every alert event as JSON Lines.
  std::string AlertsJsonl() const;
  /// Per-window series as Perfetto counter tracks ("monitor.*"), one
  /// point per closed window at its end time — merged into
  /// ExportChromeTrace via ChromeTraceOptions::counter_tracks.
  std::vector<CounterTrack> CounterTracks() const;

 private:
  /// Index into rules_ (declaration order = dashboard order).
  enum RuleIndex {
    kP99Latency = 0,
    kErrorRate,
    kDeadlocks,
    kPoolHitRate,
    kSitesReachable,
    kRuleCount,
  };

  /// Static per-rule facts + evolving budget state.
  struct Rule {
    std::string name;
    bool enabled = false;
    double limit = 0.0;
    /// true: value must stay <= limit; false: value must stay >= limit.
    bool upper_bound = true;
    double last_value = 0.0;
    /// Violation verdicts of the horizon's windows (front = oldest).
    std::deque<bool> horizon;
    int violations_in_horizon = 0;
    int64_t total_violations = 0;
    /// Rule raised a threshold alert that has not resolved yet.
    bool threshold_fired = false;
    /// "ok" | "burning" | "exhausted" (budget alert dedup state).
    std::string budget_state = "ok";
  };

  /// EWMA drift tracker of one window series.
  struct EwmaRule {
    std::string name;
    double mean = 0.0;
    double deviation = 0.0;
    int samples = 0;
    bool fired = false;
  };

  void CloseWindow(int64_t end_micros);
  /// Applies one window's value to `rule`, emitting threshold and
  /// budget transitions.
  void EvaluateRule(Rule& rule, double value, bool skipped,
                    const MonitorWindow& window);
  void EvaluateEwma(EwmaRule& rule, double value, bool skipped,
                    const MonitorWindow& window);
  void UpdateShedState(const MonitorWindow& window, bool any_violation);
  void Emit(AlertEvent event);
  int allowed_in_horizon() const;

  MonitorConfig config_;
  const MetricsRegistry* metrics_;
  const HealthRegistry* health_;
  QueryLog* query_log_ = nullptr;

  int64_t window_start_ = 0;
  int64_t next_seq_ = 1;
  /// Counter baseline the next close diffs against.
  std::map<std::string, int64_t, std::less<>> counters_before_;
  bool baselined_ = false;

  // Current-window accumulators.
  int64_t acc_finished_ = 0;
  int64_t acc_ok_ = 0;
  int64_t acc_error_ = 0;
  int64_t acc_deadlock_ = 0;
  int64_t acc_timeout_ = 0;
  int64_t acc_shed_ = 0;
  Histogram acc_latency_;

  std::map<std::string, double, std::less<>> gauges_;
  std::deque<MonitorWindow> windows_;
  std::vector<AlertEvent> alerts_;
  Rule rules_[kRuleCount];
  std::vector<EwmaRule> ewma_;

  bool shedding_ = false;
  int clean_streak_ = 0;
  int64_t shed_engagements_ = 0;
};

}  // namespace msql::obs

#endif  // MSQL_OBS_MONITOR_H_
