#ifndef MSQL_STORAGE_WAL_H_
#define MSQL_STORAGE_WAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace msql::storage {

/// Record types. The WAL is *logical*: payloads carry table names and
/// serialized rows (built by the relational layer), not page images.
/// Recovery replays committed/prepared work against the heap files,
/// guarded by per-row LSNs so redo is idempotent.
enum class WalRecordType : uint8_t {
  kBegin = 1,       // txn started (payload: session identity)
  kInsert = 2,      // after-image
  kUpdate = 3,      // before- and after-image
  kDelete = 4,      // before-image
  kCommit = 5,
  kAbort = 6,
  kPrepare = 7,     // txn entered 2PC prepared state
  kCheckpoint = 8,  // pool flushed; payload lists active txns
  kDdl = 9,         // catalog change (create database; create/drop
                    // table, index, view)
};

struct WalRecord {
  WalRecordType type = WalRecordType::kBegin;
  uint64_t lsn = 0;
  std::string payload;
};

/// Append-only log with an explicit durability boundary: Append buffers
/// the record in memory; only Flush makes it crash-survivable. A
/// simulated crash (DropUnflushed) discards the buffered tail exactly
/// like a power cut would. Framing per record:
///   [len u32][type u8][lsn u64][payload len-13 bytes]
/// `len` covers type+lsn+payload so a truncated tail is detectable.
class WriteAheadLog {
 public:
  WriteAheadLog() = default;
  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Opens (creating if absent) the log at `path`. Existing records
  /// are scanned to restore the LSN counter; a torn final record is
  /// truncated away silently (it was never acknowledged as durable).
  Status Open(const std::string& path);
  void Close();

  /// Buffers a record and returns its LSN (monotone from 1).
  Result<uint64_t> Append(WalRecordType type, std::string payload);

  /// Makes everything appended so far durable.
  Status Flush();

  /// Crash simulation: unflushed appends vanish.
  void DropUnflushed();

  /// All durable records in LSN order (for recovery).
  Result<std::vector<WalRecord>> ReadAll() const;

  uint64_t flushed_lsn() const { return flushed_lsn_; }
  int64_t appends() const { return appends_; }
  int64_t flushes() const { return flushes_; }

  void SetMetrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

  /// Emits "wal.flush" spans into `tracer` (nullptr to stop).
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  std::string path_;
  bool open_ = false;
  /// Byte size of the durable prefix of the file.
  uint64_t durable_bytes_ = 0;
  /// Framed records appended but not yet flushed.
  std::string tail_;
  uint64_t next_lsn_ = 1;
  uint64_t flushed_lsn_ = 0;
  uint64_t tail_last_lsn_ = 0;
  int64_t appends_ = 0;
  int64_t flushes_ = 0;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace msql::storage

#endif  // MSQL_STORAGE_WAL_H_
