// Local join execution through the planner (pushdown + hash joins) on a
// 3-table equi-join chain with N rows per table.
//
// The planned path touches ~N candidates per hash step and runs
// comfortably at N=1000. Counters: rows_evaluated (measured),
// naive_rows = N^3 (the cross-product size a naive odometer join would
// evaluate), and ratio = naive_rows / rows_evaluated — the ">= 10x
// fewer rows evaluated" acceptance number.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>

#include "relational/engine.h"

namespace {

using msql::relational::CapabilityProfile;
using msql::relational::LocalEngine;
using msql::relational::SessionId;

std::unique_ptr<LocalEngine> ChainEngine(int rows_per_table) {
  auto engine = std::make_unique<LocalEngine>(
      "svc", CapabilityProfile::IngresLike());
  if (!engine->CreateDatabase("db").ok()) return nullptr;
  auto s = *engine->OpenSession("db");
  for (const char* name : {"t1", "t2", "t3"}) {
    std::string create = "CREATE TABLE " + std::string(name) +
                         " (id INTEGER, v REAL)";
    if (!engine->Execute(s, create).ok()) return nullptr;
    for (int chunk = 0; chunk < rows_per_table; chunk += 512) {
      std::string insert = "INSERT INTO " + std::string(name) + " VALUES ";
      int end = std::min(chunk + 512, rows_per_table);
      for (int i = chunk; i < end; ++i) {
        if (i > chunk) insert += ", ";
        insert += "(" + std::to_string(i) + ", " + std::to_string(i) +
                  ".5)";
      }
      if (!engine->Execute(s, insert).ok()) return nullptr;
    }
  }
  return engine;
}

const char kChainQuery[] =
    "SELECT t1.id, t3.v FROM t1, t2, t3 "
    "WHERE t1.id = t2.id AND t2.id = t3.id";

/// Planned: two hash steps, ~N candidates each.
void BM_PlannedChainJoin(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  auto engine = ChainEngine(n);
  if (engine == nullptr) {
    state.SkipWithError("setup failed");
    return;
  }
  SessionId s = *engine->OpenSession("db");
  int64_t evaluated = 0;
  int64_t result_rows = 0;
  int64_t iterations = 0;
  for (auto _ : state) {
    auto rs = engine->Execute(s, kChainQuery);
    if (!rs.ok()) {
      state.SkipWithError("join failed");
      return;
    }
    evaluated = rs->rows_evaluated;
    result_rows = static_cast<int64_t>(rs->rows.size());
    ++iterations;
  }
  double naive_rows = static_cast<double>(n) * n * n;
  state.counters["rows_evaluated"] =
      benchmark::Counter(static_cast<double>(evaluated));
  state.counters["naive_rows"] = benchmark::Counter(naive_rows);
  state.counters["ratio"] = benchmark::Counter(
      evaluated > 0 ? naive_rows / static_cast<double>(evaluated) : 0.0);
  state.counters["result_rows"] =
      benchmark::Counter(static_cast<double>(result_rows));
  state.SetItemsProcessed(iterations * result_rows);
}
BENCHMARK(BM_PlannedChainJoin)
    ->Arg(8)->Arg(32)->Arg(64)->Arg(100)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

/// Pushdown + probe inside a join: selective predicate on an indexed
/// column of the big table, joined against a small table.
void BM_PlannedProbeJoin(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  bool with_index = state.range(1) != 0;
  auto engine = ChainEngine(n);
  if (engine == nullptr) {
    state.SkipWithError("setup failed");
    return;
  }
  SessionId s = *engine->OpenSession("db");
  if (with_index &&
      !engine->Execute(s, "CREATE INDEX idx1 ON t1 (id)").ok()) {
    state.SkipWithError("index failed");
    return;
  }
  int64_t scanned = 0;
  for (auto _ : state) {
    auto rs = engine->Execute(
        s,
        "SELECT t1.v, t2.v FROM t1, t2 WHERE t1.id = 7 AND "
        "t1.id = t2.id");
    if (!rs.ok()) {
      state.SkipWithError("probe join failed");
      return;
    }
    scanned = rs->rows_scanned;
  }
  state.counters["rows_scanned"] =
      benchmark::Counter(static_cast<double>(scanned));
}
BENCHMARK(BM_PlannedProbeJoin)
    ->Args({1000, 0})->Args({1000, 1})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
