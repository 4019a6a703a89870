#include "obs/health.h"

#include <algorithm>
#include <cstdio>

#include "obs/json_util.h"

namespace msql::obs {

std::string_view HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kDegraded: return "degraded";
    case HealthState::kUnreachable: return "unreachable";
  }
  return "unknown";
}

void SiteHealth::Record(bool ok, bool timed_out, bool faulted,
                        int64_t latency_micros) {
  ++attempts_;
  if (!ok) ++failures_;
  if (timed_out) ++timeouts_;
  if (faulted) ++faults_;
  consecutive_failures_ = ok ? 0 : consecutive_failures_ + 1;
  latency_.Observe(latency_micros);
  window_failed_[static_cast<size_t>(window_next_)] = !ok;
  window_next_ = (window_next_ + 1) % kWindow;
  window_size_ = std::min(window_size_ + 1, kWindow);
}

int SiteHealth::window_attempts() const { return window_size_; }

int SiteHealth::window_failures() const {
  int failed = 0;
  for (int i = 0; i < window_size_; ++i) {
    if (window_failed_[static_cast<size_t>(i)]) ++failed;
  }
  return failed;
}

HealthState SiteHealth::state() const {
  if (consecutive_failures_ >= kUnreachableAfter) {
    return HealthState::kUnreachable;
  }
  if (window_failures() > 0) return HealthState::kDegraded;
  return HealthState::kHealthy;
}

void HealthRegistry::Record(std::string_view service, std::string_view site,
                            bool ok, bool timed_out, bool faulted,
                            int64_t latency_micros) {
  auto it = sites_.find(service);
  if (it == sites_.end()) {
    it = sites_.emplace(std::string(service), Entry{}).first;
    it->second.site = std::string(site);
  }
  it->second.health.Record(ok, timed_out, faulted, latency_micros);
}

const SiteHealth* HealthRegistry::Get(std::string_view service) const {
  auto it = sites_.find(service);
  return it == sites_.end() ? nullptr : &it->second.health;
}

std::string_view HealthRegistry::SiteOf(std::string_view service) const {
  auto it = sites_.find(service);
  return it == sites_.end() ? std::string_view() : it->second.site;
}

HealthSnapshot HealthRegistry::Snapshot() const {
  HealthSnapshot snapshot;
  snapshot.services.reserve(sites_.size());
  for (const auto& [service, entry] : sites_) {
    const SiteHealth& h = entry.health;
    HealthSnapshot::Service s;
    s.service = service;
    s.site = entry.site;
    s.state = h.state();
    s.attempts = h.attempts();
    s.failures = h.failures();
    s.timeouts = h.timeouts();
    s.faults = h.faults();
    s.window_failures = h.window_failures();
    s.window_attempts = h.window_attempts();
    s.latency_p50 = h.latency().Quantile(0.5);
    s.latency_p95 = h.latency().Quantile(0.95);
    s.latency_p99 = h.latency().Quantile(0.99);
    if (s.state == HealthState::kDegraded) ++snapshot.degraded;
    if (s.state == HealthState::kUnreachable) ++snapshot.unreachable;
    snapshot.services.push_back(std::move(s));
  }
  return snapshot;
}

std::string HealthRegistry::RenderText() const {
  const HealthSnapshot snapshot = Snapshot();
  std::string out =
      "service          site             state        att  fail  t/o  flt"
      "  win(fail/att)  p50_us  p95_us  p99_us\n";
  if (snapshot.services.empty()) {
    out += "(no calls recorded)\n";
    return out;
  }
  for (const HealthSnapshot::Service& s : snapshot.services) {
    char window[24];
    std::snprintf(window, sizeof(window), "%d/%d", s.window_failures,
                  s.window_attempts);
    char line[256];
    std::snprintf(
        line, sizeof(line),
        "%-16s %-16s %-11s %5lld %5lld %4lld %4lld  %13s %7lld %7lld %7lld\n",
        s.service.c_str(), s.site.c_str(),
        std::string(HealthStateName(s.state)).c_str(),
        static_cast<long long>(s.attempts),
        static_cast<long long>(s.failures),
        static_cast<long long>(s.timeouts),
        static_cast<long long>(s.faults), window,
        static_cast<long long>(s.latency_p50),
        static_cast<long long>(s.latency_p95),
        static_cast<long long>(s.latency_p99));
    out += line;
  }
  return out;
}

std::string HealthRegistry::RenderJson() const {
  const HealthSnapshot snapshot = Snapshot();
  std::string out = "{\"services\":[";
  for (size_t i = 0; i < snapshot.services.size(); ++i) {
    if (i > 0) out += ",";
    const HealthSnapshot::Service& s = snapshot.services[i];
    out += "{\"service\":";
    AppendJsonString(&out, s.service);
    out += ",\"site\":";
    AppendJsonString(&out, s.site);
    out += ",\"state\":";
    AppendJsonString(&out, HealthStateName(s.state));
    out += ",\"attempts\":" + std::to_string(s.attempts);
    out += ",\"failures\":" + std::to_string(s.failures);
    out += ",\"timeouts\":" + std::to_string(s.timeouts);
    out += ",\"faults\":" + std::to_string(s.faults);
    out += ",\"window_failures\":" + std::to_string(s.window_failures);
    out += ",\"window_attempts\":" + std::to_string(s.window_attempts);
    out += ",\"latency_p50_us\":" + std::to_string(s.latency_p50);
    out += ",\"latency_p95_us\":" + std::to_string(s.latency_p95);
    out += ",\"latency_p99_us\":" + std::to_string(s.latency_p99);
    out += "}";
  }
  out += "],\"degraded\":" + std::to_string(snapshot.degraded);
  out += ",\"unreachable\":" + std::to_string(snapshot.unreachable);
  out += "}";
  return out;
}

}  // namespace msql::obs
