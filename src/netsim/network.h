#ifndef MSQL_NETSIM_NETWORK_H_
#define MSQL_NETSIM_NETWORK_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>

#include "common/result.h"

namespace msql::netsim {

/// Latency parameters of one directed link.
struct LinkParams {
  /// Fixed per-message latency (propagation + protocol overhead).
  int64_t latency_micros = 1000;
  /// Serialization cost per kilobyte transferred.
  int64_t micros_per_kb = 100;
};

/// Cumulative traffic counters.
struct NetworkStats {
  int64_t messages_sent = 0;
  int64_t bytes_sent = 0;
};

/// Simulated site-to-site network with a per-link latency model.
///
/// The paper's prototype ran over TCP/IP and an ISODE prototype; here
/// transfers are in-process and the network only *accounts* for them:
/// `TransferMicros` returns the modelled wall-clock cost of moving a
/// message, and callers weave those costs into their own timelines. A
/// site can be marked down to model unreachable services (§3.2's failure
/// sources).
class Network {
 public:
  Network() = default;

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers a site (idempotent).
  void AddSite(std::string_view name);

  /// Marks a site unreachable / reachable. Fails with kNotFound for an
  /// unknown site — a silently ignored misspelling here used to turn a
  /// chaos scenario into a no-op that still "passed".
  Status SetSiteDown(std::string_view name, bool down);

  /// Default parameters for links without an explicit setting.
  void set_default_link(LinkParams params) { default_link_ = params; }
  const LinkParams& default_link() const { return default_link_; }

  /// Sets the parameters of the directed link `from` → `to`. Both
  /// endpoints must be registered sites (kNotFound otherwise).
  Status SetLink(std::string_view from, std::string_view to,
                 LinkParams params);

  /// Parameters of the directed link (explicit or default).
  LinkParams GetLink(std::string_view from, std::string_view to) const;

  /// Models one message of `bytes` from `from` to `to`: returns its
  /// latency and updates the traffic counters. Fails with kUnavailable
  /// when either endpoint is unknown or down. The bandwidth term is
  /// ceiling division over a 128-bit intermediate, so sub-KB payloads
  /// are charged at least 1us of serialization (when micros_per_kb > 0)
  /// and multi-GB transfers cannot overflow.
  Result<int64_t> TransferMicros(std::string_view from, std::string_view to,
                                 int64_t bytes);

  const NetworkStats& stats() const { return stats_; }

 private:
  struct SiteState {
    bool down = false;
  };
  std::map<std::string, SiteState> sites_;
  std::map<std::pair<std::string, std::string>, LinkParams> links_;
  LinkParams default_link_;
  NetworkStats stats_;
};

}  // namespace msql::netsim

#endif  // MSQL_NETSIM_NETWORK_H_
