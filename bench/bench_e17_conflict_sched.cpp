// E17: conflict-aware admission vs baseline scheduling. Runs the same
// deadlock-prone seat-booking workloads (paper federation; symmetric
// PARBEGIN seat MTs, opposite-order sequential seat MTs, and a slice of
// reads) through the FederationServer twice — conflict_aware off, then
// on — and compares deadlock victims, aborted sessions, lock waits,
// simulated makespan and wall time. Because the paper's model is that a
// user whose vital MT aborts simply resubmits it, the bench also
// measures makespan *to completion*: aborted seat MTs are resubmitted
// in follow-up rounds until every booking commits, and the per-round
// virtual makespans are summed. Each run also counts the local SELECTs
// its sites executed (`local_selects`, the `sql.selects` counter, retry
// rounds included): every seat UPDATE runs its MIN subquery once, so a
// return to per-row subquery evaluation shows here as a multiple of the
// seat count. `scan_visits` counts the live sessions the scheduler's
// ready scan visited, retry rounds included. `rows_copied` and
// `column_binds` (the `sql.rows_copied` and `sql.column_binds`
// counters) count the rows the sites' statements copied out of a store
// and their column binding lookups. Results go to
// BENCH_conflict_sched.json.
//
// Usage: bench_e17_conflict_sched [--quick] [--out FILE] [--sessions N]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/fixtures.h"
#include "core/mdbs_system.h"
#include "core/session_scheduler.h"

namespace {

std::string SeatMt(const std::string& client) {
  return "BEGIN MULTITRANSACTION\n"
         "USE continental delta\n"
         "LET fitab.snu.sstat.clname BE\n"
         "  f838.seatnu.seatstatus.clientname\n"
         "  fnu747.snu.sstat.passname\n"
         "UPDATE fitab SET sstat = 'TAKEN', clname = '" +
         client +
         "'\n"
         "WHERE snu = (SELECT MIN(snu) FROM fitab WHERE sstat = 'FREE');\n"
         "COMMIT\n"
         "  continental AND delta\n"
         "END MULTITRANSACTION";
}

std::string OrderedSeatMt(bool continental_first,
                          const std::string& client) {
  std::string continental =
      "USE continental\n"
      "UPDATE f838 SET seatstatus = 'TAKEN', clientname = '" +
      client +
      "'\n"
      "WHERE seatnu = (SELECT MIN(seatnu) FROM f838 "
      "WHERE seatstatus = 'FREE');\n";
  std::string delta =
      "USE delta\n"
      "UPDATE fnu747 SET sstat = 'TAKEN', passname = '" + client +
      "'\n"
      "WHERE snu = (SELECT MIN(snu) FROM fnu747 WHERE sstat = 'FREE');\n";
  return "BEGIN MULTITRANSACTION\n" +
         (continental_first ? continental + delta : delta + continental) +
         "COMMIT\n"
         "  continental AND delta\n"
         "END MULTITRANSACTION";
}

struct RunStats {
  int sessions = 0;
  bool conflict_aware = false;
  double wall_ms = 0.0;
  int64_t virtual_makespan_micros = 0;
  int64_t lock_waits = 0;
  int64_t lock_wait_micros = 0;
  int64_t deadlock_victims = 0;
  int64_t lock_timeouts = 0;
  int64_t aborted = 0;
  int64_t committed = 0;
  int64_t deferrals = 0;
  int64_t avoided_deadlocks = 0;
  // To-completion view: aborted seat MTs are resubmitted round after
  // round until every booking commits (the paper's user-retry model).
  int retry_rounds = 0;
  int64_t retried_sessions = 0;
  int64_t completion_makespan_micros = 0;
  int64_t local_selects = 0;
  int64_t scan_visits = 0;
  int64_t rows_copied = 0;
  int64_t column_binds = 0;
};

bool RunOnce(uint64_t seed, int sessions, bool conflict_aware,
             RunStats* out) {
  msql::core::PaperFederationOptions options;
  options.seats_per_airline = 2 * sessions;
  auto built = msql::core::BuildPaperFederation(options);
  if (!built.ok()) {
    std::fprintf(stderr, "fixture: %s\n", built.status().ToString().c_str());
    return false;
  }
  auto sys = std::move(*built);
  sys->environment().metrics().set_enabled(true);

  msql::core::ServerConfig config;
  config.conflict_aware = conflict_aware;
  msql::core::FederationServer server(sys.get(), config);
  msql::Rng rng(seed);
  std::vector<std::string> texts;
  std::vector<bool> is_booking;
  for (int i = 0; i < sessions; ++i) {
    const std::string client = "c" + std::to_string(i);
    const double roll = rng.NextDouble();
    if (roll < 0.45) {
      texts.push_back(SeatMt(client));
      is_booking.push_back(true);
    } else if (roll < 0.80) {
      texts.push_back(OrderedSeatMt(rng.NextBool(0.5), client));
      is_booking.push_back(true);
    } else {
      texts.push_back("USE continental\nSELECT flnu FROM flights");
      is_booking.push_back(false);
    }
    server.Submit(texts.back());
  }

  const auto start = std::chrono::steady_clock::now();
  auto results = server.RunAll();
  const auto stop = std::chrono::steady_clock::now();
  if (!results.ok()) {
    std::fprintf(stderr, "RunAll: %s\n", results.status().ToString().c_str());
    return false;
  }

  out->sessions = sessions;
  out->conflict_aware = conflict_aware;
  out->wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  out->virtual_makespan_micros = server.virtual_now();
  out->scan_visits = server.scan_visits();
  for (const msql::core::SessionResult& r : *results) {
    out->lock_waits += r.lock_waits;
    out->lock_wait_micros += r.lock_wait_micros;
    out->deferrals += r.admission_deferrals;
    out->avoided_deadlocks += r.avoided_deadlocks;
    if (r.deadlock_victim) ++out->deadlock_victims;
    if (r.lock_timeout) ++out->lock_timeouts;
    if (r.report.has_value()) {
      if (r.report->outcome == msql::core::GlobalOutcome::kAborted) {
        ++out->aborted;
      }
      if (r.report->outcome == msql::core::GlobalOutcome::kSuccess) {
        ++out->committed;
      }
    }
  }

  // To-completion: resubmit every booking that did not commit (aborted,
  // deadlock victim, or errored) until they all make it, summing the
  // per-round virtual makespans. The virtual clock restarts at zero for
  // each batch, so the sum is the sequential wait a retrying user sees.
  out->completion_makespan_micros = out->virtual_makespan_micros;
  std::vector<std::string> pending;
  for (size_t i = 0; i < results->size(); ++i) {
    const msql::core::SessionResult& r = (*results)[i];
    if (!is_booking[i]) continue;
    const bool booked =
        r.report.has_value() &&
        r.report->outcome == msql::core::GlobalOutcome::kSuccess;
    if (!booked) pending.push_back(texts[i]);
  }
  constexpr int kMaxRounds = 50;
  while (!pending.empty() && out->retry_rounds < kMaxRounds) {
    ++out->retry_rounds;
    out->retried_sessions += static_cast<int64_t>(pending.size());
    msql::core::FederationServer retry_server(sys.get(), config);
    for (const std::string& text : pending) retry_server.Submit(text);
    auto retry = retry_server.RunAll();
    if (!retry.ok()) {
      std::fprintf(stderr, "retry round %d: %s\n", out->retry_rounds,
                   retry.status().ToString().c_str());
      return false;
    }
    out->completion_makespan_micros += retry_server.virtual_now();
    out->scan_visits += retry_server.scan_visits();
    std::vector<std::string> next;
    for (size_t i = 0; i < retry->size(); ++i) {
      const msql::core::SessionResult& r = (*retry)[i];
      const bool booked =
          r.report.has_value() &&
          r.report->outcome == msql::core::GlobalOutcome::kSuccess;
      if (!booked) next.push_back(pending[i]);
    }
    pending = std::move(next);
  }
  if (!pending.empty()) {
    std::fprintf(stderr, "%zu bookings still unbooked after %d rounds\n",
                 pending.size(), kMaxRounds);
    return false;
  }
  out->local_selects = sys->environment().metrics().Get("sql.selects");
  out->rows_copied = sys->environment().metrics().Get("sql.rows_copied");
  out->column_binds = sys->environment().metrics().Get("sql.column_binds");
  return true;
}

void Print(const RunStats& s) {
  std::printf(
      "conflict_aware=%-5s sessions=%-4d wall=%8.1fms makespan=%9lldus "
      "victims=%-3lld timeouts=%-3lld aborted=%-3lld committed=%-4lld "
      "lock_waits=%-5lld deferrals=%-4lld avoided=%-4lld "
      "retries=%lld/%dr completion=%9lldus selects=%lld visits=%lld "
      "copied=%lld binds=%lld\n",
      s.conflict_aware ? "true" : "false", s.sessions, s.wall_ms,
      static_cast<long long>(s.virtual_makespan_micros),
      static_cast<long long>(s.deadlock_victims),
      static_cast<long long>(s.lock_timeouts),
      static_cast<long long>(s.aborted),
      static_cast<long long>(s.committed),
      static_cast<long long>(s.lock_waits),
      static_cast<long long>(s.deferrals),
      static_cast<long long>(s.avoided_deadlocks),
      static_cast<long long>(s.retried_sessions), s.retry_rounds,
      static_cast<long long>(s.completion_makespan_micros),
      static_cast<long long>(s.local_selects),
      static_cast<long long>(s.scan_visits),
      static_cast<long long>(s.rows_copied),
      static_cast<long long>(s.column_binds));
}

void Emit(std::ostream& json, const RunStats& s, bool last) {
  json << "    {\"sessions\": " << s.sessions << ", \"conflict_aware\": "
       << (s.conflict_aware ? "true" : "false")
       << ", \"wall_ms\": " << s.wall_ms
       << ", \"virtual_makespan_micros\": " << s.virtual_makespan_micros
       << ", \"lock_waits\": " << s.lock_waits
       << ", \"lock_wait_micros\": " << s.lock_wait_micros
       << ", \"deadlock_victims\": " << s.deadlock_victims
       << ", \"lock_timeouts\": " << s.lock_timeouts
       << ", \"aborted\": " << s.aborted
       << ", \"committed\": " << s.committed
       << ", \"deferrals\": " << s.deferrals
       << ", \"avoided_deadlocks\": " << s.avoided_deadlocks
       << ", \"retry_rounds\": " << s.retry_rounds
       << ", \"retried_sessions\": " << s.retried_sessions
       << ", \"completion_makespan_micros\": "
       << s.completion_makespan_micros
       << ", \"local_selects\": " << s.local_selects
       << ", \"scan_visits\": " << s.scan_visits
       << ", \"rows_copied\": " << s.rows_copied
       << ", \"column_binds\": " << s.column_binds << "}"
       << (last ? "\n" : ",\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_conflict_sched.json";
  int sessions = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[++i];
    if (std::strcmp(argv[i], "--sessions") == 0 && i + 1 < argc)
      sessions = std::atoi(argv[++i]);
  }
  std::vector<int> scales = {60, 120, 240};
  if (quick) scales = {60};
  if (sessions > 0) scales = {sessions};
  const uint64_t seed = 1993;

  std::vector<RunStats> stats;
  for (int scale : scales) {
    for (bool aware : {false, true}) {
      RunStats s;
      if (!RunOnce(seed, scale, aware, &s)) return 1;
      Print(s);
      stats.push_back(s);
    }
  }

  std::ofstream json(out_path);
  json << "{\n  \"bench\": \"e17_conflict_sched\",\n"
       << "  \"seed\": " << seed << ",\n  \"runs\": [\n";
  for (size_t i = 0; i < stats.size(); ++i) {
    Emit(json, stats[i], i + 1 == stats.size());
  }
  json << "  ]\n}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
