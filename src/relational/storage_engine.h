#ifndef MSQL_RELATIONAL_STORAGE_ENGINE_H_
#define MSQL_RELATIONAL_STORAGE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "relational/index.h"
#include "relational/schema.h"
#include "relational/sql/ast.h"
#include "relational/table.h"
#include "relational/txn.h"
#include "relational/value.h"
#include "storage/btree.h"
#include "storage/buffer_manager.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"
#include "storage/wal.h"

namespace msql::relational {

class StorageManager;

/// How a LocalEngine persists its databases.
struct StorageConfig {
  /// Directory holding the WAL and every heap/index file.
  std::string root_dir;
  /// Buffer pool size in 4 KiB frames — the engine's entire page-cache
  /// memory budget, shared by all files of the root.
  size_t buffer_pool_pages = 64;
};

/// Paged row store of one table incarnation (one heap file). A "drop
/// then re-create" of the same table name gets a fresh TableStorage with
/// a distinct file (stems embed the creating DDL record's LSN), so an
/// aborted re-create can never clobber the old incarnation's data. The
/// Table that owns it decides its lifetime: the catalog holds it, an
/// undo record holds it after a DROP that may still roll back, and it
/// dies with the Table.
///
/// Every change is logged first (attributed to the manager's current
/// transaction), then applied to the heap on the record's LSN.
class TableStorage : public RowStore {
 public:
  TableStorage(StorageManager* mgr, std::string db, std::string table,
               std::string path, TxnId creator);
  ~TableStorage() override;

  TableStorage(const TableStorage&) = delete;
  TableStorage& operator=(const TableStorage&) = delete;

  /// Opens the heap file, formatting it when empty.
  Status OpenOrCreate();

  const std::string& db() const { return db_; }
  const std::string& table() const { return table_; }
  /// Transaction the CREATE TABLE record of this incarnation carries (0
  /// when the DDL was logged outside any transaction).
  TxnId creator() const { return creator_; }
  storage::HeapFile* heap() { return heap_.get(); }

  Status Insert(RowId id, Row row) override;
  Result<Row> Update(RowId id, Row row) override;
  Result<Row> Delete(RowId id) override;
  Result<Row> Read(RowId id) const override;
  /// Decodes each live heap row in rowid order and lends it to `fn`.
  Status ScanLive(const RowVisitor& fn) const override;
  Status ScanSlots(
      const std::function<Status(RowId, bool)>& fn) const override;
  /// A BtreeIndex populated from the heap. CREATE INDEX is logged once
  /// the tree is built, so a build the data defeats (a key longer than
  /// the tree accepts) leaves no record behind.
  Result<std::unique_ptr<Index>> BuildIndex(const std::string& index_name,
                                            const ColumnDef& column,
                                            size_t column_index) override;
  Status DropIndex(const std::string& index_name) override;

 private:
  StorageManager* mgr_;
  std::string db_;
  std::string table_;
  std::string path_;
  TxnId creator_;
  std::unique_ptr<storage::DiskManager> disk_;
  uint32_t file_id_ = 0;
  std::unique_ptr<storage::HeapFile> heap_;
};

/// Page-backed secondary index: a B+-tree over order-preserving key
/// encodings with the rowid appended (multimap semantics through
/// unique composite keys). Carries no LSNs — after a crash the tree is
/// rebuilt wholesale from a heap scan, so runtime maintenance never
/// needs logging.
class BtreeIndex : public Index {
 public:
  BtreeIndex(std::string name, size_t column_index, Type column_type,
             StorageManager* mgr, std::string path);
  ~BtreeIndex() override;

  /// Opens the file and resets the tree to empty (callers repopulate).
  Status OpenOrReset();

  Status Insert(const Value& key, RowId id) override;
  Status Erase(const Value& key, RowId id) override;
  Result<std::vector<RowId>> LookupIds(const Value& key) const override;
  size_t distinct_keys() const override { return distinct_; }

 private:
  Type column_type_;
  StorageManager* mgr_;
  std::string path_;
  std::unique_ptr<storage::DiskManager> disk_;
  uint32_t file_id_ = 0;
  std::unique_ptr<storage::BTree> tree_;
  /// Maintained from the tree's prefix answers on every insert and
  /// erase (planner selectivity input); exact.
  size_t distinct_ = 0;
};

// -- Recovery report ---------------------------------------------------------

struct RecoveredDatabaseInfo {
  /// Tables over their replayed incarnations, indexes rebuilt.
  std::map<std::string, std::unique_ptr<Table>> tables;
  /// View definitions in creation order.
  std::vector<std::pair<std::string, std::unique_ptr<SelectStmt>>> views;
};

/// A transaction that crashed in the 2PC prepared state. The engine
/// re-creates its session and transaction, re-acquires its exclusive
/// locks and rebuilds its undo log from WAL before-images, so the
/// coordinator can still resolve it either way.
struct PreparedTxnImage {
  TxnId txn_id = 0;
  uint64_t session_id = 0;
  std::string db;
  /// Undo records in execution order (Transaction applies in reverse).
  std::vector<UndoRecord> undo;
  /// "db.table" resources to re-lock exclusively.
  std::vector<std::string> lock_keys;
};

struct RecoveryReport {
  std::map<std::string, RecoveredDatabaseInfo> databases;
  std::vector<PreparedTxnImage> prepared;
  TxnId max_txn_id = 0;
  uint64_t max_session_id = 0;
};

// -- Storage manager ---------------------------------------------------------

/// Durability brain of one LocalEngine: owns the buffer pool and the
/// WAL, and turns engine/transaction events into log records. It owns
/// no table: each TableStorage belongs to its Table, so a transaction's
/// undo log alone decides whether a dropped or created incarnation
/// survives. Protocol invariants (see DESIGN.md §15):
///   - WAL before data: every heap change appends its logical record
///     first and stamps the record's LSN on the heap entry.
///   - No-steal: pages dirtied by a transaction cannot reach disk until
///     the transaction's outcome record is durable (pool ReleaseTxn is
///     called only after the WAL flush in OnCommit/OnAbort/OnPrepare),
///     so recovery is pure redo — no page-level undo exists.
///   - Compensation: logical undo performed during rollback is logged
///     as transaction-0 records (always redone), which keeps a
///     prepared-then-aborted transaction's flushed pages correct.
///   - DDL logged as transaction 0 (outside any transaction) is flushed
///     at once and recovery always replays it, so CREATE INDEX is
///     logged only after its tree is built.
///   - The WAL is never truncated; recovery replays it from the start,
///     which also makes it the only catalog (DDL records rebuild the
///     schema; no separate catalog file can get out of sync).
class StorageManager {
 public:
  explicit StorageManager(StorageConfig config);
  ~StorageManager();

  StorageManager(const StorageManager&) = delete;
  StorageManager& operator=(const StorageManager&) = delete;

  /// Creates the root directory if needed and opens the WAL.
  Status Open();

  const StorageConfig& config() const { return config_; }
  storage::BufferManager& pool() { return pool_; }
  storage::WriteAheadLog& wal() { return wal_; }
  void SetMetrics(obs::MetricsRegistry* metrics) {
    pool_.SetMetrics(metrics);
    wal_.SetMetrics(metrics);
  }
  /// Emits "storage.checkpoint"/"storage.recover" spans (and forwards
  /// to the pool's eviction and the WAL's flush spans). Nullptr stops.
  void SetTracer(obs::Tracer* tracer) {
    tracer_ = tracer;
    pool_.SetTracer(tracer);
    wal_.SetTracer(tracer);
  }

  // -- Transaction context (set by the engine around execution) ----------

  /// Attributes the records that follow to `txn` (0: outside any
  /// transaction, which is how DDL the engine's profile cannot roll
  /// back is logged).
  void SetCurrentTxn(TxnId txn, uint64_t session, std::string db);
  void ClearCurrentTxn();
  /// During rollback, mutations are compensations: logged as
  /// transaction 0 (always redone) and DDL logging is suppressed.
  /// `txn` is the transaction being undone; compensations against
  /// incarnations that transaction itself created (TableStorage::
  /// creator) are not logged at all (replay discards the whole
  /// incarnation, and the table name binds to an older incarnation
  /// there, so such a record would corrupt it).
  void SetUndoMode(bool on, TxnId txn = 0) {
    undo_mode_ = on;
    undo_txn_ = on ? txn : 0;
  }
  /// Transaction that page writes are attributed to right now.
  TxnId effective_txn() const { return undo_mode_ ? 0 : current_txn_; }

  // -- Transaction outcomes ----------------------------------------------

  /// Logs COMMIT, flushes and releases the no-steal holds. Transactions
  /// that never logged anything skip the WAL entirely.
  Status OnCommit(TxnId txn);
  /// Logs ABORT (the caller has already applied undo — with undo mode
  /// set — so compensations precede this record), flushes and releases
  /// holds.
  Status OnAbort(TxnId txn);
  /// Forces BEGIN if missing, logs PREPARE, flushes and releases the
  /// no-steal holds: a prepared transaction's effects are durable and
  /// its pages may reach disk (compensations handle a later abort).
  Status OnPrepare(TxnId txn, uint64_t session, const std::string& db);

  /// WAL flush, bounded page writeback, checkpoint record. `max_pages`
  /// caps the writeback so tests can crash mid-checkpoint.
  Status Checkpoint(size_t max_pages = SIZE_MAX);

  /// Power-cut simulation: the pool and the unflushed WAL tail vanish;
  /// completed page writes survive (see DESIGN.md §15 crash model).
  void SimulateCrash();

  /// Replays the entire WAL: rebuilds the catalog from DDL records,
  /// redoes committed/prepared/compensation DML under per-entry LSN
  /// guards, opens a Table (indexes rebuilt) over every surviving
  /// incarnation, and reports prepared transactions with their undo
  /// logs for the engine to re-instate. An incarnation a prepared
  /// transaction dropped comes back inside that transaction's
  /// kDropTable undo record.
  Result<RecoveryReport> Recover();

  // -- Catalog hooks (called from engine / Database / Table) -------------

  Status OnCreateDatabase(const std::string& db);

  /// Logs CREATE TABLE and creates the incarnation's heap file, stamped
  /// with the transaction the record carries.
  Result<std::unique_ptr<TableStorage>> CreateTableStorage(
      const std::string& db, const TableSchema& schema);
  /// Logs DROP TABLE. No-op in undo mode.
  Status OnDropTable(const std::string& db, const std::string& table);

  /// A fresh file for an index's B+-tree. Indexes are rebuilt at every
  /// recovery, so the name only has to be unique within this process.
  std::string NewIndexPath(const std::string& db, const std::string& table,
                           const std::string& index);
  /// Logs CREATE INDEX. No-op in undo mode and while Recover re-creates
  /// the indexes its log already records.
  Status OnCreateIndex(const std::string& db, const std::string& table,
                       const std::string& index, const std::string& column);
  Status OnDropIndex(const std::string& db, const std::string& table,
                     const std::string& index);
  Status OnCreateView(const std::string& db, const std::string& view,
                      const std::string& sql);
  Status OnDropView(const std::string& db, const std::string& view);

  // -- DML logging (called by TableStorage) ------------------------------

  /// Logs an INSERT (`images` = after), UPDATE (before, after) or
  /// DELETE (before) of row `id` of `ts`. Returns the record's LSN, or 0
  /// for a compensation against an incarnation created by the
  /// transaction being undone (see SetUndoMode).
  Result<uint64_t> LogRow(storage::WalRecordType type, const TableStorage& ts,
                          RowId id,
                          std::initializer_list<std::string_view> images);

 private:
  /// Lazily logs BEGIN for the current transaction (so read-only
  /// transactions never touch the WAL).
  Status EnsureBegun();
  /// Appends a DDL record; one logged outside any transaction is
  /// flushed before this returns.
  Result<uint64_t> AppendDdl(uint8_t op, const std::string& db,
                             const std::string& a, const std::string& b,
                             const std::string& c,
                             const TableSchema* schema);
  /// Recover's work, run with `replaying_` set.
  Result<RecoveryReport> Replay();
  std::string HeapPath(const std::string& db, const std::string& table,
                       uint64_t lsn) const;

  StorageConfig config_;
  storage::BufferManager pool_;
  storage::WriteAheadLog wal_;
  obs::Tracer* tracer_ = nullptr;

  TxnId current_txn_ = 0;
  uint64_t current_session_ = 0;
  std::string current_db_;
  bool undo_mode_ = false;
  TxnId undo_txn_ = 0;
  /// Set while Recover opens the replayed tables.
  bool replaying_ = false;
  /// Transactions with a durable-or-buffered BEGIN record.
  std::set<TxnId> begun_;

  /// Index files handed out so far (NewIndexPath).
  uint64_t index_files_ = 0;
};

}  // namespace msql::relational

#endif  // MSQL_RELATIONAL_STORAGE_ENGINE_H_
