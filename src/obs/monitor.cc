#include "obs/monitor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/json_util.h"

namespace msql::obs {

namespace {

/// Dashboard tables show at most this many recent windows / alerts.
constexpr size_t kDashboardWindows = 12;
constexpr size_t kDashboardAlerts = 8;

/// Relative floor under the EWMA deviation so a series that has been
/// perfectly flat (deviation 0) still needs a material move — not an
/// infinitesimal one — to fire.
constexpr double kEwmaRelativeFloor = 0.05;
constexpr double kEwmaAbsoluteFloor = 1e-9;

/// Smoothing factor of the EWMA running mean / mean-absolute-deviation.
constexpr double kEwmaAlpha = 0.3;

}  // namespace

std::string AlertEvent::ToJson() const {
  std::string out = "{\"event\":\"alert\"";
  out += ",\"at_micros\":" + std::to_string(at_micros);
  out += ",\"window\":" + std::to_string(window_seq);
  out += ",\"rule\":";
  AppendJsonString(&out, rule);
  out += ",\"kind\":";
  AppendJsonString(&out, kind);
  out += ",\"severity\":";
  AppendJsonString(&out, severity);
  out += fired ? ",\"fired\":true" : ",\"fired\":false";
  out += ",\"value\":" + FormatMetricNumber(value);
  out += ",\"limit\":" + FormatMetricNumber(limit);
  out += ",\"detail\":";
  AppendJsonString(&out, detail);
  out += "}";
  return out;
}

Monitor::Monitor(MonitorConfig config, const MetricsRegistry* metrics,
                 const HealthRegistry* health)
    : config_(config), metrics_(metrics), health_(health) {
  if (config_.window_micros <= 0) config_.window_micros = 1;
  if (config_.capacity <= 0) config_.capacity = 1;
  if (config_.budget_horizon_windows <= 0) config_.budget_horizon_windows = 1;
  rules_[kP99Latency] = Rule{};
  rules_[kP99Latency].name = "p99_latency_us";
  rules_[kP99Latency].enabled = config_.slo_p99_latency_micros > 0;
  rules_[kP99Latency].limit =
      static_cast<double>(config_.slo_p99_latency_micros);
  rules_[kErrorRate].name = "error_rate";
  rules_[kErrorRate].enabled = config_.slo_max_error_rate >= 0.0;
  rules_[kErrorRate].limit = config_.slo_max_error_rate;
  rules_[kDeadlocks].name = "deadlock_victims";
  rules_[kDeadlocks].enabled = config_.slo_max_deadlock_victims >= 0;
  rules_[kDeadlocks].limit =
      static_cast<double>(config_.slo_max_deadlock_victims);
  rules_[kPoolHitRate].name = "pool_hit_rate";
  rules_[kPoolHitRate].enabled = config_.slo_min_pool_hit_rate >= 0.0;
  rules_[kPoolHitRate].limit = config_.slo_min_pool_hit_rate;
  rules_[kPoolHitRate].upper_bound = false;
  rules_[kSitesReachable].name = "sites_unreachable";
  rules_[kSitesReachable].enabled = config_.slo_sites_reachable;
  rules_[kSitesReachable].limit = 0.0;
  ewma_.push_back(EwmaRule{});
  ewma_.back().name = "p99_latency_us";
  ewma_.push_back(EwmaRule{});
  ewma_.back().name = "error_rate";
}

void Monitor::RecordSession(const SessionSample& sample) {
  AdvanceTo(sample.finish_micros);
  ++acc_finished_;
  if (sample.ok) {
    ++acc_ok_;
  } else {
    ++acc_error_;
  }
  if (sample.deadlock_victim) ++acc_deadlock_;
  if (sample.lock_timeout) ++acc_timeout_;
  if (sample.was_shed) ++acc_shed_;
  acc_latency_.Observe(std::max<int64_t>(0, sample.makespan_micros));
}

void Monitor::SetGauge(std::string_view name, double value) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauges_.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

void Monitor::AdvanceTo(int64_t now) {
  while (NeedsSample(now)) {
    CloseWindow(window_start_ + config_.window_micros);
  }
}

void Monitor::Flush(int64_t now) {
  AdvanceTo(now);
  if (now > window_start_ && acc_finished_ > 0) CloseWindow(now);
}

int Monitor::allowed_in_horizon() const {
  const double allowed =
      config_.slo_budget_fraction *
      static_cast<double>(config_.budget_horizon_windows);
  return std::max(1, static_cast<int>(allowed));
}

void Monitor::CloseWindow(int64_t end_micros) {
  MonitorWindow w;
  w.seq = next_seq_++;
  w.start_micros = window_start_;
  w.end_micros = end_micros;
  window_start_ = end_micros;

  w.sessions_finished = acc_finished_;
  w.sessions_ok = acc_ok_;
  w.sessions_error = acc_error_;
  w.deadlock_victims = acc_deadlock_;
  w.lock_timeouts = acc_timeout_;
  w.sessions_shed = acc_shed_;
  if (acc_finished_ > 0) {
    w.p50_latency_micros = acc_latency_.Quantile(0.5);
    w.p99_latency_micros = acc_latency_.Quantile(0.99);
    w.error_rate = static_cast<double>(acc_error_) /
                   static_cast<double>(acc_finished_);
  }
  acc_finished_ = acc_ok_ = acc_error_ = 0;
  acc_deadlock_ = acc_timeout_ = acc_shed_ = 0;
  acc_latency_ = Histogram{};

  if (metrics_ != nullptr) {
    auto after = metrics_->CounterSnapshot();
    if (baselined_) {
      for (const auto& [name, value] : after) {
        auto it = counters_before_.find(name);
        const int64_t before =
            it == counters_before_.end() ? 0 : it->second;
        if (value != before) w.counter_deltas[name] = value - before;
      }
    }
    counters_before_ = std::move(after);
    baselined_ = true;
    auto delta = [&w](const char* name) {
      auto it = w.counter_deltas.find(name);
      return it == w.counter_deltas.end() ? 0 : it->second;
    };
    w.page_reads = delta("storage.page_reads");
    w.page_writes = delta("storage.page_writes");
    w.evictions = delta("storage.evictions");
    w.pin_hits = delta("storage.pin_hits");
  }
  const int64_t pool_traffic = w.pin_hits + w.page_reads;
  if (pool_traffic > 0) {
    w.pool_hit_rate =
        static_cast<double>(w.pin_hits) / static_cast<double>(pool_traffic);
  }

  if (health_ != nullptr) {
    const HealthSnapshot snapshot = health_->Snapshot();
    w.sites_total = static_cast<int>(snapshot.services.size());
    w.sites_degraded = snapshot.degraded;
    w.sites_unreachable = snapshot.unreachable;
  }
  w.gauges = std::map<std::string, double>(gauges_.begin(), gauges_.end());

  const bool empty_window = w.sessions_finished == 0;
  EvaluateRule(rules_[kP99Latency],
               static_cast<double>(w.p99_latency_micros), empty_window, w);
  EvaluateRule(rules_[kErrorRate], w.error_rate, empty_window, w);
  EvaluateRule(rules_[kDeadlocks],
               static_cast<double>(w.deadlock_victims), false, w);
  EvaluateRule(rules_[kPoolHitRate], w.pool_hit_rate, pool_traffic == 0, w);
  EvaluateRule(rules_[kSitesReachable],
               static_cast<double>(w.sites_unreachable), health_ == nullptr,
               w);
  EvaluateEwma(ewma_[0], static_cast<double>(w.p99_latency_micros),
               empty_window, w);
  EvaluateEwma(ewma_[1], w.error_rate, empty_window, w);

  bool any_violation = false;
  for (const Rule& rule : rules_) {
    if (!rule.horizon.empty() && rule.horizon.back()) any_violation = true;
  }
  UpdateShedState(w, any_violation);
  w.shedding = shedding_;

  windows_.push_back(std::move(w));
  while (windows_.size() > static_cast<size_t>(config_.capacity)) {
    windows_.pop_front();
  }
}

void Monitor::EvaluateRule(Rule& rule, double value, bool skipped,
                           const MonitorWindow& window) {
  if (!skipped) rule.last_value = value;
  const bool violated =
      rule.enabled && !skipped &&
      (rule.upper_bound ? value > rule.limit : value < rule.limit);
  rule.horizon.push_back(violated);
  if (violated) {
    ++rule.violations_in_horizon;
    ++rule.total_violations;
  }
  while (rule.horizon.size() >
         static_cast<size_t>(config_.budget_horizon_windows)) {
    if (rule.horizon.front()) --rule.violations_in_horizon;
    rule.horizon.pop_front();
  }
  if (!rule.enabled) return;

  if (violated && !rule.threshold_fired) {
    rule.threshold_fired = true;
    AlertEvent event;
    event.at_micros = window.end_micros;
    event.window_seq = window.seq;
    event.rule = "slo." + rule.name;
    event.kind = "threshold";
    event.severity = "warn";
    event.fired = true;
    event.value = value;
    event.limit = rule.limit;
    event.detail = rule.name + (rule.upper_bound ? " above " : " below ") +
                   FormatMetricNumber(rule.limit) + " in window " +
                   std::to_string(window.seq);
    Emit(std::move(event));
  } else if (!violated && !skipped && rule.threshold_fired) {
    rule.threshold_fired = false;
    AlertEvent event;
    event.at_micros = window.end_micros;
    event.window_seq = window.seq;
    event.rule = "slo." + rule.name;
    event.kind = "threshold";
    event.severity = "info";
    event.fired = false;
    event.value = value;
    event.limit = rule.limit;
    event.detail = rule.name + " back within slo";
    Emit(std::move(event));
  }

  const int allowed = allowed_in_horizon();
  std::string state = "ok";
  if (rule.violations_in_horizon > allowed) {
    state = "exhausted";
  } else if (rule.violations_in_horizon > 0) {
    state = "burning";
  }
  if (state != rule.budget_state) {
    AlertEvent event;
    event.at_micros = window.end_micros;
    event.window_seq = window.seq;
    event.rule = "budget." + rule.name;
    event.kind = "budget";
    event.severity = state == "exhausted" ? "critical"
                     : state == "burning" ? "warn"
                                          : "info";
    event.fired = state != "ok";
    event.value = static_cast<double>(rule.violations_in_horizon);
    event.limit = static_cast<double>(allowed);
    event.detail = "error budget " + state + ": " +
                   std::to_string(rule.violations_in_horizon) + " of " +
                   std::to_string(allowed) + " allowed violating windows in " +
                   std::to_string(config_.budget_horizon_windows) +
                   "-window horizon";
    rule.budget_state = state;
    Emit(std::move(event));
  }
}

void Monitor::EvaluateEwma(EwmaRule& rule, double value, bool skipped,
                           const MonitorWindow& window) {
  if (skipped) return;
  if (rule.samples == 0) {
    rule.mean = value;
    rule.deviation = 0.0;
    rule.samples = 1;
    return;
  }
  const double diff = std::fabs(value - rule.mean);
  const double floor = std::max(std::fabs(rule.mean) * kEwmaRelativeFloor,
                                kEwmaAbsoluteFloor);
  const double threshold =
      config_.ewma_drift_factor * std::max(rule.deviation, floor);
  if (rule.samples >= config_.ewma_min_windows) {
    if (diff > threshold && !rule.fired) {
      rule.fired = true;
      AlertEvent event;
      event.at_micros = window.end_micros;
      event.window_seq = window.seq;
      event.rule = "ewma." + rule.name;
      event.kind = "ewma";
      event.severity = "warn";
      event.fired = true;
      event.value = value;
      event.limit = rule.mean;
      event.detail = rule.name + " drifted from ewma mean " +
                     FormatMetricNumber(rule.mean) + " (deviation " +
                     FormatMetricNumber(rule.deviation) + ")";
      Emit(std::move(event));
    } else if (diff <= threshold && rule.fired) {
      rule.fired = false;
      AlertEvent event;
      event.at_micros = window.end_micros;
      event.window_seq = window.seq;
      event.rule = "ewma." + rule.name;
      event.kind = "ewma";
      event.severity = "info";
      event.fired = false;
      event.value = value;
      event.limit = rule.mean;
      event.detail = rule.name + " back near ewma mean";
      Emit(std::move(event));
    }
  }
  rule.mean += kEwmaAlpha * (value - rule.mean);
  rule.deviation = (1.0 - kEwmaAlpha) * rule.deviation + kEwmaAlpha * diff;
  ++rule.samples;
}

void Monitor::UpdateShedState(const MonitorWindow& window,
                              bool any_violation) {
  bool any_exhausted = false;
  std::string exhausted_names;
  for (const Rule& rule : rules_) {
    if (rule.budget_state == "exhausted") {
      any_exhausted = true;
      if (!exhausted_names.empty()) exhausted_names += ",";
      exhausted_names += rule.name;
    }
  }
  if (!shedding_) {
    if (any_exhausted) {
      shedding_ = true;
      ++shed_engagements_;
      clean_streak_ = 0;
      AlertEvent event;
      event.at_micros = window.end_micros;
      event.window_seq = window.seq;
      event.rule = "admission.shed";
      event.kind = "admission";
      event.severity = "critical";
      event.fired = true;
      event.value = 1.0;
      event.limit = 0.0;
      event.detail = "slo budget exhausted (" + exhausted_names +
                     "): shedding new-session admission";
      Emit(std::move(event));
    }
    return;
  }
  if (any_violation) {
    clean_streak_ = 0;
    return;
  }
  ++clean_streak_;
  if (clean_streak_ >= config_.recover_after_clean_windows &&
      !any_exhausted) {
    shedding_ = false;
    AlertEvent event;
    event.at_micros = window.end_micros;
    event.window_seq = window.seq;
    event.rule = "admission.shed";
    event.kind = "admission";
    event.severity = "info";
    event.fired = false;
    event.value = 0.0;
    event.limit = 0.0;
    event.detail = std::to_string(clean_streak_) +
                   " clean windows: admission restored";
    Emit(std::move(event));
  }
}

void Monitor::Emit(AlertEvent event) {
  if (query_log_ != nullptr) query_log_->AppendEventJson(event.ToJson());
  alerts_.push_back(std::move(event));
}

std::vector<SloStatus> Monitor::SloStatuses() const {
  std::vector<SloStatus> out;
  out.reserve(kRuleCount);
  for (const Rule& rule : rules_) {
    SloStatus status;
    status.name = rule.name;
    status.enabled = rule.enabled;
    status.limit = rule.limit;
    status.last_value = rule.last_value;
    status.violations_in_horizon = rule.violations_in_horizon;
    status.allowed_in_horizon = allowed_in_horizon();
    status.total_violations = rule.total_violations;
    status.state = rule.budget_state;
    out.push_back(std::move(status));
  }
  return out;
}

std::string Monitor::RenderDashboardText() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "federation monitor  window=%lldus  horizon=%d  "
                "budget=%d/%d  shed=%s (engagements %lld)\n",
                static_cast<long long>(config_.window_micros),
                config_.budget_horizon_windows, allowed_in_horizon(),
                config_.budget_horizon_windows, shedding_ ? "ON" : "off",
                static_cast<long long>(shed_engagements_));
  out += line;
  std::snprintf(line, sizeof(line),
                "windows closed: %lld (ring %zu/%d)  alerts: %zu\n",
                static_cast<long long>(windows_closed()), windows_.size(),
                config_.capacity, alerts_.size());
  out += line;

  out += "slo                  state      last        limit"
         "  budget(viol/allow)  total\n";
  for (const SloStatus& slo : SloStatuses()) {
    if (!slo.enabled) {
      std::snprintf(line, sizeof(line), "  %-18s (off)\n", slo.name.c_str());
      out += line;
      continue;
    }
    char budget[24];
    std::snprintf(budget, sizeof(budget), "%d/%d", slo.violations_in_horizon,
                  slo.allowed_in_horizon);
    std::snprintf(line, sizeof(line),
                  "  %-18s %-9s %-11s %-11s %9s %10lld\n", slo.name.c_str(),
                  slo.state.c_str(), FormatMetricNumber(slo.last_value).c_str(),
                  FormatMetricNumber(slo.limit).c_str(), budget,
                  static_cast<long long>(slo.total_violations));
    out += line;
  }

  if (!windows_.empty()) {
    out += "recent windows:\n";
    out += "  seq       end_us  fin   ok  err  dlk  t/o  shd"
           "   p99_us  err_rate  hit_rate  unreach\n";
    size_t start = windows_.size() > kDashboardWindows
                       ? windows_.size() - kDashboardWindows
                       : 0;
    for (size_t i = start; i < windows_.size(); ++i) {
      const MonitorWindow& w = windows_[i];
      std::snprintf(line, sizeof(line),
                    "  %3lld %12lld %4lld %4lld %4lld %4lld %4lld %4lld"
                    " %8lld %9.4f %9.4f %8d%s\n",
                    static_cast<long long>(w.seq),
                    static_cast<long long>(w.end_micros),
                    static_cast<long long>(w.sessions_finished),
                    static_cast<long long>(w.sessions_ok),
                    static_cast<long long>(w.sessions_error),
                    static_cast<long long>(w.deadlock_victims),
                    static_cast<long long>(w.lock_timeouts),
                    static_cast<long long>(w.sessions_shed),
                    static_cast<long long>(w.p99_latency_micros),
                    w.error_rate, w.pool_hit_rate, w.sites_unreachable,
                    w.shedding ? "  SHED" : "");
      out += line;
    }
  }

  if (!alerts_.empty()) {
    out += "recent alerts:\n";
    size_t start = alerts_.size() > kDashboardAlerts
                       ? alerts_.size() - kDashboardAlerts
                       : 0;
    for (size_t i = start; i < alerts_.size(); ++i) {
      const AlertEvent& a = alerts_[i];
      out += "  [";
      out += a.fired ? "raise" : "clear";
      out += "] " + std::to_string(a.at_micros) + "us " + a.rule + " " +
             a.severity + " value=" + FormatMetricNumber(a.value) +
             " limit=" + FormatMetricNumber(a.limit) + " " + a.detail + "\n";
    }
  }
  return out;
}

std::string Monitor::RenderDashboardJson() const {
  std::string out = "{\"window_micros\":" +
                    std::to_string(config_.window_micros);
  out += ",\"horizon_windows\":" +
         std::to_string(config_.budget_horizon_windows);
  out += ",\"allowed_in_horizon\":" + std::to_string(allowed_in_horizon());
  out += ",\"windows_closed\":" + std::to_string(windows_closed());
  out += std::string(",\"shedding\":") + (shedding_ ? "true" : "false");
  out += ",\"shed_engagements\":" + std::to_string(shed_engagements_);
  out += ",\"slos\":[";
  bool first = true;
  for (const SloStatus& slo : SloStatuses()) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":";
    AppendJsonString(&out, slo.name);
    out += std::string(",\"enabled\":") + (slo.enabled ? "true" : "false");
    out += ",\"state\":";
    AppendJsonString(&out, slo.state);
    out += ",\"last_value\":" + FormatMetricNumber(slo.last_value);
    out += ",\"limit\":" + FormatMetricNumber(slo.limit);
    out += ",\"violations_in_horizon\":" +
           std::to_string(slo.violations_in_horizon);
    out += ",\"allowed_in_horizon\":" +
           std::to_string(slo.allowed_in_horizon);
    out += ",\"total_violations\":" + std::to_string(slo.total_violations);
    out += "}";
  }
  out += "],\"windows\":[";
  first = true;
  for (const MonitorWindow& w : windows_) {
    if (!first) out += ",";
    first = false;
    out += "{\"seq\":" + std::to_string(w.seq);
    out += ",\"start_micros\":" + std::to_string(w.start_micros);
    out += ",\"end_micros\":" + std::to_string(w.end_micros);
    out += ",\"finished\":" + std::to_string(w.sessions_finished);
    out += ",\"ok\":" + std::to_string(w.sessions_ok);
    out += ",\"errors\":" + std::to_string(w.sessions_error);
    out += ",\"deadlock_victims\":" + std::to_string(w.deadlock_victims);
    out += ",\"lock_timeouts\":" + std::to_string(w.lock_timeouts);
    out += ",\"shed\":" + std::to_string(w.sessions_shed);
    out += ",\"p50_latency_us\":" + std::to_string(w.p50_latency_micros);
    out += ",\"p99_latency_us\":" + std::to_string(w.p99_latency_micros);
    out += ",\"error_rate\":" + FormatMetricNumber(w.error_rate);
    out += ",\"page_reads\":" + std::to_string(w.page_reads);
    out += ",\"page_writes\":" + std::to_string(w.page_writes);
    out += ",\"evictions\":" + std::to_string(w.evictions);
    out += ",\"pin_hits\":" + std::to_string(w.pin_hits);
    out += ",\"pool_hit_rate\":" + FormatMetricNumber(w.pool_hit_rate);
    out += ",\"sites_degraded\":" + std::to_string(w.sites_degraded);
    out += ",\"sites_unreachable\":" + std::to_string(w.sites_unreachable);
    out += std::string(",\"shedding\":") + (w.shedding ? "true" : "false");
    out += ",\"gauges\":{";
    bool g_first = true;
    for (const auto& [name, value] : w.gauges) {
      if (!g_first) out += ",";
      g_first = false;
      AppendJsonString(&out, name);
      out += ":" + FormatMetricNumber(value);
    }
    out += "}}";
  }
  out += "],\"alerts\":[";
  first = true;
  for (const AlertEvent& alert : alerts_) {
    if (!first) out += ",";
    first = false;
    out += alert.ToJson();
  }
  out += "]}";
  return out;
}

std::string Monitor::AlertsJsonl() const {
  std::string out;
  for (const AlertEvent& alert : alerts_) {
    out += alert.ToJson();
    out += "\n";
  }
  return out;
}

std::vector<CounterTrack> Monitor::CounterTracks() const {
  std::vector<CounterTrack> tracks(6);
  tracks[0].name = "monitor.sessions_finished";
  tracks[1].name = "monitor.sessions_error";
  tracks[2].name = "monitor.deadlock_victims";
  tracks[3].name = "monitor.p99_latency_us";
  tracks[4].name = "monitor.pool_hit_rate";
  tracks[5].name = "monitor.shedding";
  for (const MonitorWindow& w : windows_) {
    const int64_t ts = w.end_micros;
    tracks[0].points.emplace_back(ts,
                                  static_cast<double>(w.sessions_finished));
    tracks[1].points.emplace_back(ts,
                                  static_cast<double>(w.sessions_error));
    tracks[2].points.emplace_back(ts,
                                  static_cast<double>(w.deadlock_victims));
    tracks[3].points.emplace_back(
        ts, static_cast<double>(w.p99_latency_micros));
    tracks[4].points.emplace_back(ts, w.pool_hit_rate);
    tracks[5].points.emplace_back(ts, w.shedding ? 1.0 : 0.0);
  }
  return tracks;
}

}  // namespace msql::obs
