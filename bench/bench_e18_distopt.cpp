// E18: cost-based distributed optimizer vs paper heuristics on a skewed
// federation. Two databases — `alpha.small` (a handful of rows) and
// `beta.big` (100x..1000x more rows) — are joined on a key column. The
// paper-heuristic path picks the coordinator alphabetically and ships
// the whole remote partial through the MDBS site; the cost-based path
// (after ANALYZE populates the statistics catalog) recognises the skew
// and installs a semi-join key filter at the remote site instead. The
// bench runs the same join both ways at several scales and compares
// simulated bytes moved, DOL makespan and the bytes of SQL text the
// sites parse for it. Results go to BENCH_distopt.json.
//
// Usage: bench_e18_distopt [--quick] [--out FILE] [--rows N]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/mdbs_system.h"

namespace {

/// Skewed two-database federation: `alpha.small` holds `small_rows`
/// rows, `beta.big` holds `big_rows` rows keyed 0..big_rows-1.
msql::Result<std::unique_ptr<msql::core::MultidatabaseSystem>>
BuildSkewedPair(int small_rows, int big_rows) {
  auto sys = std::make_unique<msql::core::MultidatabaseSystem>();
  for (const char* svc : {"alpha_svc", "beta_svc"}) {
    MSQL_RETURN_IF_ERROR(sys->AddService(
        svc, std::string("site_") + svc,
        msql::relational::CapabilityProfile::IngresLike()));
  }
  MSQL_ASSIGN_OR_RETURN(auto* alpha, sys->GetEngine("alpha_svc"));
  MSQL_RETURN_IF_ERROR(alpha->CreateDatabase("alpha"));
  MSQL_RETURN_IF_ERROR(sys->RunLocalSql(
      "alpha_svc", "alpha", "CREATE TABLE small (k INTEGER, tag TEXT)"));
  std::string small_insert = "INSERT INTO small VALUES ";
  for (int i = 0; i < small_rows; ++i) {
    if (i > 0) small_insert += ", ";
    small_insert +=
        "(" + std::to_string(i) + ", 'tag" + std::to_string(i) + "')";
  }
  MSQL_RETURN_IF_ERROR(sys->RunLocalSql("alpha_svc", "alpha", small_insert));
  MSQL_ASSIGN_OR_RETURN(auto* beta, sys->GetEngine("beta_svc"));
  MSQL_RETURN_IF_ERROR(beta->CreateDatabase("beta"));
  MSQL_RETURN_IF_ERROR(sys->RunLocalSql(
      "beta_svc", "beta", "CREATE TABLE big (k INTEGER, v REAL)"));
  for (int start = 0; start < big_rows; start += 500) {
    std::string insert = "INSERT INTO big VALUES ";
    for (int i = start; i < std::min(start + 500, big_rows); ++i) {
      if (i > start) insert += ", ";
      insert += "(" + std::to_string(i) + ", " + std::to_string(i) + ".5)";
    }
    MSQL_RETURN_IF_ERROR(sys->RunLocalSql("beta_svc", "beta", insert));
  }
  for (const char* db : {"alpha", "beta"}) {
    auto inc = sys->Execute(
        "INCORPORATE SERVICE " + std::string(db) + "_svc SITE site_" + db +
        "_svc CONNECTMODE CONNECT COMMITMODE NOCOMMIT CREATE NOCOMMIT "
        "INSERT NOCOMMIT DROP NOCOMMIT");
    MSQL_RETURN_IF_ERROR(inc.status());
    auto imp = sys->Execute("IMPORT DATABASE " + std::string(db) +
                            " FROM SERVICE " + db + "_svc");
    MSQL_RETURN_IF_ERROR(imp.status());
  }
  return sys;
}

struct RunStats {
  int small_rows = 0;
  int big_rows = 0;
  bool cost_based = false;
  bool semi_join = false;
  double wall_ms = 0.0;
  int64_t bytes_moved = 0;
  int64_t makespan_micros = 0;
  size_t result_rows = 0;
  /// Bytes of SQL text the two sites' engines parsed for the join: the
  /// statements of the plan, not the rows TRANSFER ships.
  int64_t sql_bytes_parsed = 0;
};

/// SQL bytes parsed so far by the alpha and beta engines.
int64_t SqlBytesParsed(msql::core::MultidatabaseSystem* sys) {
  int64_t bytes = 0;
  for (const char* svc : {"alpha_svc", "beta_svc"}) {
    auto engine = sys->GetEngine(svc);
    if (engine.ok()) bytes += (*engine)->stats().sql_bytes_parsed;
  }
  return bytes;
}

bool RunOnce(int small_rows, int big_rows, bool cost_based, RunStats* out) {
  auto built = BuildSkewedPair(small_rows, big_rows);
  if (!built.ok()) {
    std::fprintf(stderr, "fixture: %s\n", built.status().ToString().c_str());
    return false;
  }
  auto sys = std::move(*built);
  sys->set_cost_based_optimizer(cost_based);
  if (cost_based) {
    for (const char* db : {"alpha", "beta"}) {
      auto analyzed = sys->Execute("ANALYZE DATABASE " + std::string(db));
      if (!analyzed.ok()) {
        std::fprintf(stderr, "ANALYZE %s: %s\n", db,
                     analyzed.status().ToString().c_str());
        return false;
      }
    }
  }

  const std::string sql =
      "USE alpha beta\n"
      "SELECT small.tag, big.v FROM alpha.small, beta.big "
      "WHERE small.k = big.k";
  const int64_t parsed_before = SqlBytesParsed(sys.get());
  const auto start = std::chrono::steady_clock::now();
  auto report = sys->Execute(sql);
  const auto stop = std::chrono::steady_clock::now();
  out->sql_bytes_parsed = SqlBytesParsed(sys.get()) - parsed_before;
  if (!report.ok()) {
    std::fprintf(stderr, "Execute: %s\n", report.status().ToString().c_str());
    return false;
  }
  if (report->outcome != msql::core::GlobalOutcome::kSuccess) {
    std::fprintf(stderr, "join did not commit\n");
    return false;
  }

  out->small_rows = small_rows;
  out->big_rows = big_rows;
  out->cost_based = cost_based;
  out->semi_join =
      report->cost_text.find("semi-join keys") != std::string::npos;
  out->wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  out->bytes_moved = static_cast<int64_t>(report->run.bytes);
  out->makespan_micros = report->run.makespan_micros;
  out->result_rows = report->join_result.rows.size();
  return true;
}

void Print(const RunStats& s) {
  std::printf(
      "cost_based=%-5s small=%-3d big=%-6d semi_join=%-5s rows=%-4zu "
      "bytes=%-9lld makespan=%9lldus sql_parsed=%-7lld wall=%7.1fms\n",
      s.cost_based ? "true" : "false", s.small_rows, s.big_rows,
      s.semi_join ? "true" : "false", s.result_rows,
      static_cast<long long>(s.bytes_moved),
      static_cast<long long>(s.makespan_micros),
      static_cast<long long>(s.sql_bytes_parsed), s.wall_ms);
}

void Emit(std::ostream& json, const RunStats& s, bool last) {
  json << "    {\"small_rows\": " << s.small_rows
       << ", \"big_rows\": " << s.big_rows
       << ", \"cost_based\": " << (s.cost_based ? "true" : "false")
       << ", \"semi_join\": " << (s.semi_join ? "true" : "false")
       << ", \"result_rows\": " << s.result_rows
       << ", \"bytes_moved\": " << s.bytes_moved
       << ", \"makespan_micros\": " << s.makespan_micros
       << ", \"sql_bytes_parsed\": " << s.sql_bytes_parsed
       << ", \"wall_ms\": " << s.wall_ms << "}" << (last ? "\n" : ",\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_distopt.json";
  int rows = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[++i];
    if (std::strcmp(argv[i], "--rows") == 0 && i + 1 < argc)
      rows = std::atoi(argv[++i]);
  }
  constexpr int kSmallRows = 5;
  // 500 sits below the crossover (two extra semi-join hops cost more
  // than shipping ~9KB whole), so the optimizer keeps ship-whole there.
  std::vector<int> scales = {500, 5000, 20000};
  if (quick) scales = {5000};
  if (rows > 0) scales = {rows};

  std::vector<RunStats> stats;
  for (int big_rows : scales) {
    RunStats heur;
    RunStats cost;
    if (!RunOnce(kSmallRows, big_rows, /*cost_based=*/false, &heur)) return 1;
    if (!RunOnce(kSmallRows, big_rows, /*cost_based=*/true, &cost)) return 1;
    Print(heur);
    Print(cost);
    if (cost.result_rows != heur.result_rows) {
      std::fprintf(stderr, "answer mismatch: %zu vs %zu rows\n",
                   cost.result_rows, heur.result_rows);
      return 1;
    }
    const double byte_ratio =
        heur.bytes_moved > 0
            ? static_cast<double>(cost.bytes_moved) / heur.bytes_moved
            : 1.0;
    std::printf("  -> bytes ratio %.3f, makespan ratio %.3f\n", byte_ratio,
                heur.makespan_micros > 0
                    ? static_cast<double>(cost.makespan_micros) /
                          heur.makespan_micros
                    : 1.0);
    stats.push_back(heur);
    stats.push_back(cost);
  }

  std::ofstream json(out_path);
  json << "{\n  \"bench\": \"e18_distopt\",\n  \"runs\": [\n";
  for (size_t i = 0; i < stats.size(); ++i) {
    Emit(json, stats[i], i + 1 == stats.size());
  }
  json << "  ]\n}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
