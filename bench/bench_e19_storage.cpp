// E19: persistent storage engine under a dataset ~10x the buffer pool.
// A LocalEngine with paged storage (64-frame pool = 256KB) ingests
// ~20k rows (~2.5MB of WAL'd row payload) in small committed batches
// with periodic checkpoints, then serves indexed point SELECTs and
// selective UPDATEs. The pool must stay bounded (evictions, not
// growth), and a final simulated power cut must recover to the exact
// committed row count. Counters (page reads/writes, evictions, pin
// hits, WAL appends/flushes) and ru_maxrss go to BENCH_storage.json.
//
// Usage: bench_e19_storage [--quick] [--out FILE] [--rows N]
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "relational/engine.h"

namespace {

using msql::relational::CapabilityProfile;
using msql::relational::LocalEngine;
using msql::relational::SessionId;
using msql::relational::StorageConfig;

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

long MaxRssKb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

struct BenchStats {
  int rows = 0;
  size_t pool_pages = 0;
  double load_ms = 0.0;
  double point_select_ms = 0.0;
  double update_ms = 0.0;
  double recover_ms = 0.0;
  int64_t page_reads = 0;
  int64_t page_writes = 0;
  int64_t evictions = 0;
  int64_t pin_hits = 0;
  int64_t wal_appends = 0;
  int64_t wal_flushes = 0;
  uint64_t heap_bytes = 0;
  long max_rss_kb = 0;
  bool recovered_ok = false;
};

bool Fail(const msql::Status& status, const char* where) {
  std::fprintf(stderr, "%s: %s\n", where, status.ToString().c_str());
  return false;
}

bool RunBench(int rows, const std::string& root, BenchStats* out) {
  std::filesystem::remove_all(root);
  StorageConfig config;
  config.root_dir = root;
  config.buffer_pool_pages = 64;  // 256KB of pages vs ~2.5MB of rows
  out->rows = rows;
  out->pool_pages = config.buffer_pool_pages;

  LocalEngine engine("bench", CapabilityProfile::IngresLike());
  if (auto s = engine.AttachStorage(config); !s.ok())
    return Fail(s, "AttachStorage");
  if (auto s = engine.CreateDatabase("d"); !s.ok())
    return Fail(s, "CreateDatabase");
  auto session = engine.OpenSession("d");
  if (!session.ok()) return Fail(session.status(), "OpenSession");
  SessionId sid = *session;
  if (auto rs = engine.Execute(
          sid, "CREATE TABLE t (id INTEGER, grp INTEGER, pad CHAR(120));");
      !rs.ok())
    return Fail(rs.status(), "CREATE TABLE");
  if (auto rs = engine.Execute(sid, "CREATE INDEX t_id ON t (id);"); !rs.ok())
    return Fail(rs.status(), "CREATE INDEX");

  // Load: committed batches of 50, checkpoint every 4000 rows. Each row
  // carries a ~110-byte pad so the heap dwarfs the 64-page pool.
  const std::string pad(100, 'x');
  auto load_start = std::chrono::steady_clock::now();
  for (int i = 0; i < rows; ++i) {
    if (i % 50 == 0) {
      if (auto rs = engine.Execute(sid, "BEGIN;"); !rs.ok())
        return Fail(rs.status(), "BEGIN");
    }
    std::string sql = "INSERT INTO t VALUES (" + std::to_string(i) + ", " +
                      std::to_string(i % 97) + ", 'p" + std::to_string(i) +
                      "_" + pad + "');";
    if (auto rs = engine.Execute(sid, sql); !rs.ok())
      return Fail(rs.status(), "INSERT");
    if (i % 50 == 49 || i + 1 == rows) {
      if (auto rs = engine.Execute(sid, "COMMIT;"); !rs.ok())
        return Fail(rs.status(), "COMMIT");
    }
    if (i > 0 && i % 4000 == 0) {
      if (auto s = engine.Checkpoint(); !s.ok()) return Fail(s, "Checkpoint");
    }
  }
  out->load_ms = MsSince(load_start);

  // Indexed point reads across the whole key range: with a 10x-pool
  // dataset most probes miss the pool and must page in.
  const int kProbes = 2000;
  auto select_start = std::chrono::steady_clock::now();
  for (int p = 0; p < kProbes; ++p) {
    int id = static_cast<int>((static_cast<int64_t>(p) * 7919) % rows);
    auto rs = engine.Execute(
        sid, "SELECT grp FROM t WHERE id = " + std::to_string(id) + ";");
    if (!rs.ok()) return Fail(rs.status(), "point SELECT");
    if (rs->rows.size() != 1) {
      std::fprintf(stderr, "probe id=%d returned %zu rows\n", id,
                   rs->rows.size());
      return false;
    }
  }
  out->point_select_ms = MsSince(select_start);

  // Selective updates, batched in transactions.
  const int kUpdates = 500;
  auto update_start = std::chrono::steady_clock::now();
  for (int u = 0; u < kUpdates; ++u) {
    int id = static_cast<int>((static_cast<int64_t>(u) * 6007 + 13) % rows);
    if (u % 25 == 0) {
      if (auto rs = engine.Execute(sid, "BEGIN;"); !rs.ok())
        return Fail(rs.status(), "BEGIN");
    }
    auto rs = engine.Execute(sid, "UPDATE t SET grp = grp + 1 WHERE id = " +
                                      std::to_string(id) + ";");
    if (!rs.ok()) return Fail(rs.status(), "UPDATE");
    if (u % 25 == 24 || u + 1 == kUpdates) {
      if (auto rs2 = engine.Execute(sid, "COMMIT;"); !rs2.ok())
        return Fail(rs2.status(), "COMMIT");
    }
  }
  out->update_ms = MsSince(update_start);

  auto* storage = engine.storage();
  out->page_reads = storage->pool().page_reads();
  out->page_writes = storage->pool().page_writes();
  out->evictions = storage->pool().evictions();
  out->pin_hits = storage->pool().pin_hits();
  out->wal_appends = storage->wal().appends();
  out->wal_flushes = storage->wal().flushes();
  for (const auto& entry : std::filesystem::directory_iterator(root)) {
    if (entry.path().extension() == ".heap") {
      out->heap_bytes += entry.file_size();
    }
  }

  // Power cut and WAL replay: the committed state must come back whole.
  engine.SimulateCrash();
  auto recover_start = std::chrono::steady_clock::now();
  if (auto s = engine.Recover(); !s.ok()) return Fail(s, "Recover");
  out->recover_ms = MsSince(recover_start);
  auto post = engine.OpenSession("d");
  if (!post.ok()) return Fail(post.status(), "OpenSession post-recovery");
  auto count = engine.Execute(*post, "SELECT COUNT(*) FROM t;");
  if (!count.ok()) return Fail(count.status(), "COUNT post-recovery");
  int64_t recovered = count->rows[0][0].AsInteger();
  out->recovered_ok = recovered == rows;
  if (!out->recovered_ok) {
    std::fprintf(stderr, "recovered %lld rows, expected %d\n",
                 static_cast<long long>(recovered), rows);
  }
  out->max_rss_kb = MaxRssKb();
  std::filesystem::remove_all(root);
  return out->recovered_ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_storage.json";
  int rows = 20000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[++i];
    if (std::strcmp(argv[i], "--rows") == 0 && i + 1 < argc)
      rows = std::atoi(argv[++i]);
  }
  if (quick) rows = 4000;

  BenchStats stats;
  // Per process, so concurrent runs (two build trees' ctest) never
  // share a storage directory.
  const std::string root =
      (std::filesystem::temp_directory_path() /
       ("msql_bench_e19_" + std::to_string(::getpid())))
          .string();
  if (!RunBench(rows, root, &stats)) return 1;

  std::printf(
      "rows=%d pool_pages=%zu heap_bytes=%llu (%.1fx pool)\n"
      "load=%.1fms point_select=%.1fms update=%.1fms recover=%.1fms\n"
      "page_reads=%lld page_writes=%lld evictions=%lld pin_hits=%lld\n"
      "wal_appends=%lld wal_flushes=%lld max_rss=%ldKB recovered=%s\n",
      stats.rows, stats.pool_pages,
      static_cast<unsigned long long>(stats.heap_bytes),
      static_cast<double>(stats.heap_bytes) /
          (stats.pool_pages * msql::storage::kPageSize),
      stats.load_ms, stats.point_select_ms, stats.update_ms, stats.recover_ms,
      static_cast<long long>(stats.page_reads),
      static_cast<long long>(stats.page_writes),
      static_cast<long long>(stats.evictions),
      static_cast<long long>(stats.pin_hits),
      static_cast<long long>(stats.wal_appends),
      static_cast<long long>(stats.wal_flushes), stats.max_rss_kb,
      stats.recovered_ok ? "true" : "false");

  std::ofstream json(out_path);
  json << "{\n  \"bench\": \"e19_storage\",\n"
       << "  \"rows\": " << stats.rows << ",\n"
       << "  \"pool_pages\": " << stats.pool_pages << ",\n"
       << "  \"heap_bytes\": " << stats.heap_bytes << ",\n"
       << "  \"load_ms\": " << stats.load_ms << ",\n"
       << "  \"point_select_ms\": " << stats.point_select_ms << ",\n"
       << "  \"update_ms\": " << stats.update_ms << ",\n"
       << "  \"recover_ms\": " << stats.recover_ms << ",\n"
       << "  \"page_reads\": " << stats.page_reads << ",\n"
       << "  \"page_writes\": " << stats.page_writes << ",\n"
       << "  \"evictions\": " << stats.evictions << ",\n"
       << "  \"pin_hits\": " << stats.pin_hits << ",\n"
       << "  \"wal_appends\": " << stats.wal_appends << ",\n"
       << "  \"wal_flushes\": " << stats.wal_flushes << ",\n"
       << "  \"max_rss_kb\": " << stats.max_rss_kb << ",\n"
       << "  \"recovered\": " << (stats.recovered_ok ? "true" : "false")
       << "\n}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
