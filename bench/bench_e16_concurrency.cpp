// E16: concurrent federation server throughput. Submits 1k/10k/100k
// sessions (reads across the synthetic federation plus a slice of
// single-database update multitransactions for lock churn), runs them
// through the FederationServer scheduler, and reports wall-clock QPS
// plus p50/p99 session makespan on the simulated clock, and the live
// sessions the scheduler's ready scan visited (`scan_visits`, a work
// counter that grows with the admitted set, not the batch). Two more
// work counters cover the sites' local SELECTs: the rows their scans
// and probes copied out of a store (`rows_copied`, the
// `sql.rows_copied` counter) and their column binding lookups
// (`column_binds`, `sql.column_binds`); a scan that copies before it
// filters, or a per-row name lookup, multiplies them. Results are
// written to BENCH_concurrency.json.
//
// Usage: bench_e16_concurrency [--quick] [--out FILE]
//        [--max-sessions N] [--update-fraction F]
#include <algorithm>
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

struct RunStats {
  int sessions = 0;
  double wall_ms = 0.0;
  double qps = 0.0;
  int64_t virtual_makespan_micros = 0;
  int64_t p50_makespan_micros = 0;
  int64_t p99_makespan_micros = 0;
  int64_t lock_waits = 0;
  int64_t failures = 0;
  int64_t scan_visits = 0;
  int64_t rows_copied = 0;
  int64_t column_binds = 0;
};

int64_t Percentile(std::vector<int64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t idx = static_cast<size_t>(p * (sorted.size() - 1));
  return sorted[idx];
}

std::string ReadQuery(int db) {
  return "USE db" + std::to_string(db) + "\nSELECT fno FROM flight" +
         std::to_string(db);
}

std::string UpdateMt(int db) {
  const std::string n = std::to_string(db);
  return "BEGIN MULTITRANSACTION\n"
         "USE db" + n +
         "\nUPDATE flight" + n +
         " SET day = 'MON' WHERE fno = 1;\n"
         "COMMIT\n  db" + n + "\nEND MULTITRANSACTION";
}

bool RunScale(int sessions, double update_fraction, RunStats* out) {
  msql::core::SyntheticFederationOptions options;
  options.n_databases = 8;
  options.rows_per_table = 32;
  auto built = msql::core::BuildSyntheticFederation(options);
  if (!built.ok()) {
    std::fprintf(stderr, "fixture: %s\n", built.status().ToString().c_str());
    return false;
  }
  auto sys = std::move(*built);
  sys->environment().metrics().set_enabled(true);

  msql::core::ServerConfig config;
  // Bounded admission keeps at most this many compiled plans + DOL
  // engines live at once; the rest of the batch waits as plain text.
  config.max_admitted = 256;
  msql::core::FederationServer server(sys.get(), config);
  msql::Rng rng(1993);
  for (int i = 0; i < sessions; ++i) {
    const int db = i % options.n_databases;
    if (rng.NextBool(update_fraction)) {
      server.Submit(UpdateMt(db));
    } else {
      server.Submit(ReadQuery(db));
    }
  }

  const auto start = std::chrono::steady_clock::now();
  auto results = server.RunAll();
  const auto stop = std::chrono::steady_clock::now();
  if (!results.ok()) {
    std::fprintf(stderr, "RunAll: %s\n", results.status().ToString().c_str());
    return false;
  }

  std::vector<int64_t> makespans;
  makespans.reserve(results->size());
  out->sessions = sessions;
  out->lock_waits = 0;
  out->failures = 0;
  for (const msql::core::SessionResult& r : *results) {
    out->lock_waits += r.lock_waits;
    const bool ok =
        r.report.has_value() &&
        r.report->outcome == msql::core::GlobalOutcome::kSuccess;
    if (!ok) ++out->failures;
    makespans.push_back(r.makespan_micros);
  }
  std::sort(makespans.begin(), makespans.end());
  out->wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  out->qps = out->wall_ms > 0.0 ? sessions / (out->wall_ms / 1000.0) : 0.0;
  out->virtual_makespan_micros = server.virtual_now();
  out->p50_makespan_micros = Percentile(makespans, 0.50);
  out->p99_makespan_micros = Percentile(makespans, 0.99);
  out->scan_visits = server.scan_visits();
  out->rows_copied = sys->environment().metrics().Get("sql.rows_copied");
  out->column_binds = sys->environment().metrics().Get("sql.column_binds");
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_concurrency.json";
  int max_sessions = 100000;
  double update_fraction = 0.02;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[++i];
    if (std::strcmp(argv[i], "--max-sessions") == 0 && i + 1 < argc)
      max_sessions = std::atoi(argv[++i]);
    if (std::strcmp(argv[i], "--update-fraction") == 0 && i + 1 < argc)
      update_fraction = std::atof(argv[++i]);
  }

  std::vector<int> scales = {1000, 10000, 100000};
  if (quick) scales = {1000};
  std::vector<RunStats> stats;
  for (int scale : scales) {
    if (scale > max_sessions) continue;
    RunStats s;
    if (!RunScale(scale, update_fraction, &s)) return 1;
    stats.push_back(s);
    std::printf(
        "sessions=%-7d wall=%9.1fms qps=%9.0f p50=%6lldus p99=%6lldus "
        "lock_waits=%lld failures=%lld scan_visits=%lld rows_copied=%lld "
        "column_binds=%lld\n",
        s.sessions, s.wall_ms, s.qps,
        static_cast<long long>(s.p50_makespan_micros),
        static_cast<long long>(s.p99_makespan_micros),
        static_cast<long long>(s.lock_waits),
        static_cast<long long>(s.failures),
        static_cast<long long>(s.scan_visits),
        static_cast<long long>(s.rows_copied),
        static_cast<long long>(s.column_binds));
  }

  std::ofstream json(out_path);
  json << "{\n  \"bench\": \"e16_concurrency\",\n"
       << "  \"update_fraction\": " << update_fraction << ",\n"
       << "  \"runs\": [\n";
  for (size_t i = 0; i < stats.size(); ++i) {
    const RunStats& s = stats[i];
    json << "    {\"sessions\": " << s.sessions
         << ", \"wall_ms\": " << s.wall_ms << ", \"qps\": " << s.qps
         << ", \"virtual_makespan_micros\": " << s.virtual_makespan_micros
         << ", \"p50_makespan_micros\": " << s.p50_makespan_micros
         << ", \"p99_makespan_micros\": " << s.p99_makespan_micros
         << ", \"lock_waits\": " << s.lock_waits
         << ", \"failures\": " << s.failures
         << ", \"scan_visits\": " << s.scan_visits
         << ", \"rows_copied\": " << s.rows_copied
         << ", \"column_binds\": " << s.column_binds << "}"
         << (i + 1 < stats.size() ? ",\n" : "\n");
  }
  json << "  ]\n}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
