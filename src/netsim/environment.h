#ifndef MSQL_NETSIM_ENVIRONMENT_H_
#define MSQL_NETSIM_ENVIRONMENT_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "netsim/fault_injector.h"
#include "netsim/lam.h"
#include "netsim/network.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace msql::netsim {

/// Narada resource-directory entry: where a service lives and how to
/// talk to it ("physical addresses, communication protocols, login
/// information and the data transfer methods", §4.1). Protocol and
/// login are carried as opaque strings — they document the simulated
/// heterogeneity without changing behaviour.
struct ServiceEntry {
  std::string service_name;
  std::string site_name;
  std::string protocol = "tcp/ip";
  std::string login = "mdbs";
};

/// Timing of one simulated RPC.
struct CallTiming {
  int64_t start_micros = 0;
  int64_t request_micros = 0;  // client → LAM
  int64_t service_micros = 0;  // local execution
  int64_t response_micros = 0;  // LAM → client
  int64_t end_micros = 0;
};

/// Outcome of one simulated RPC: the LAM's response plus its timeline.
struct CallOutcome {
  LamResponse response;
  CallTiming timing;
  /// No response arrived within the call timeout (lost request or lost
  /// response). The coordinator cannot tell the two apart — only a
  /// re-probe can.
  bool timed_out = false;
  /// Ground truth for tests/traces: the LAM actually executed the
  /// request (true for lost-*response* faults). Decision logic must not
  /// read this — the coordinator has no such oracle.
  bool request_delivered = false;
  /// Injected fault applied to this call (kNone for clean calls) —
  /// trace/metrics ground truth, like `request_delivered`.
  FaultAction fault = FaultAction::kNone;
  /// Network traffic of this call alone (request + response legs).
  /// Callers that need per-run totals sum these instead of diffing the
  /// global network counters, which misattribute unrelated traffic.
  int64_t messages = 0;
  int64_t bytes = 0;
};

/// The multi-system execution environment: a network of sites, a
/// resource directory, and one LAM per incorporated service. The DOL
/// engine issues all remote interaction through `Call`, which models the
/// round-trip (request latency + LAM service time + response latency)
/// and returns absolute start/end times so callers can overlap parallel
/// calls on their own timeline.
class Environment {
 public:
  /// Creates the environment with the coordinator (MDBS) site.
  explicit Environment(std::string coordinator_site = "mdbs");

  Environment(const Environment&) = delete;
  Environment& operator=(const Environment&) = delete;

  Network& network() { return network_; }
  const Network& network() const { return network_; }
  const std::string& coordinator_site() const { return coordinator_site_; }

  /// Scripted fault schedule applied to every Call (empty by default).
  FaultInjector& fault_injector() { return fault_injector_; }
  const FaultInjector& fault_injector() const { return fault_injector_; }

  /// Span tracer and metrics of this federation (DESIGN.md §9). Both
  /// are disabled null sinks by default; everything that touches the
  /// environment (DOL engine, MSQL front end, benches) records here.
  obs::Tracer& tracer() { return tracer_; }
  const obs::Tracer& tracer() const { return tracer_; }
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Per-site health monitor, fed by every Call. Unlike tracer/metrics
  /// this is always on (DESIGN.md §11): a few integer updates per RPC.
  obs::HealthRegistry& health() { return health_; }
  const obs::HealthRegistry& health() const { return health_; }

  /// Simulated time the coordinator waits for a response before a call
  /// is declared timed out (lost request/response faults).
  static constexpr int64_t kCallTimeoutMicros = 20'000;

  /// Registers a service: creates its site (if new), records the
  /// directory entry and installs the LAM.
  Status AddService(std::string_view service_name,
                    std::string_view site_name,
                    std::unique_ptr<relational::LocalEngine> engine);

  bool HasService(std::string_view service_name) const;
  Result<Lam*> GetLam(std::string_view service_name);
  Result<const ServiceEntry*> GetServiceEntry(
      std::string_view service_name) const;
  std::vector<std::string> ServiceNames() const;

  /// Issues one RPC from the coordinator to `service_name`, starting at
  /// simulated time `at_micros`. Network unavailability is reported in
  /// the returned Status (the response is then empty). Scripted faults
  /// from the injector surface as response-level kUnavailable outcomes
  /// (with `timed_out` set for lost messages) so callers can apply
  /// retry/re-probe policy.
  Result<CallOutcome> Call(std::string_view service_name,
                           const LamRequest& request, int64_t at_micros);

 private:
  /// The round-trip model behind Call; Call wraps it to feed the health
  /// registry on every return path.
  Result<CallOutcome> CallImpl(Lam* lam, const LamRequest& request,
                               int64_t at_micros);

  std::string coordinator_site_;
  Network network_;
  FaultInjector fault_injector_;
  obs::Tracer tracer_;
  obs::MetricsRegistry metrics_;
  obs::HealthRegistry health_;
  std::map<std::string, ServiceEntry> directory_;
  std::map<std::string, std::unique_ptr<Lam>> lams_;
};

}  // namespace msql::netsim

#endif  // MSQL_NETSIM_ENVIRONMENT_H_
