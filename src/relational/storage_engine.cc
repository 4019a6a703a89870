#include "relational/storage_engine.h"

#include <algorithm>
#include <filesystem>

#include "relational/row_serde.h"
#include "relational/sql/parser.h"
#include "storage/page.h"

namespace msql::relational {

namespace {

// kDdl payload operation codes. Code 2 (DROP DATABASE) is retired: the
// SQL dialect has no database-level statement, and replay rejects a
// record that carries it as malformed.
constexpr uint8_t kDdlCreateDb = 1;
constexpr uint8_t kDdlCreateTable = 3;
constexpr uint8_t kDdlDropTable = 4;
constexpr uint8_t kDdlCreateIndex = 5;
constexpr uint8_t kDdlDropIndex = 6;
constexpr uint8_t kDdlCreateView = 7;
constexpr uint8_t kDdlDropView = 8;

using storage::AppendStr;
using storage::AppendU32;
using storage::AppendU64;
using storage::ByteReader;

Status MalformedRecord(uint64_t lsn) {
  return Status::Corrupted("malformed WAL payload at LSN " +
                           std::to_string(lsn));
}

void AppendSchema(std::string* out, const TableSchema& schema) {
  AppendU32(out, static_cast<uint32_t>(schema.num_columns()));
  for (const ColumnDef& col : schema.columns()) {
    AppendStr(out, col.name);
    out->push_back(static_cast<char>(col.type));
    AppendU32(out, static_cast<uint32_t>(col.width));
  }
}

Result<TableSchema> ReadSchema(ByteReader* r, const std::string& table,
                               uint64_t lsn) {
  uint32_t ncols = r->U32();
  // Every column takes bytes: a count beyond those left is corrupt.
  if (!r->ok || ncols > r->remaining()) return MalformedRecord(lsn);
  std::vector<ColumnDef> cols;
  cols.reserve(ncols);
  for (uint32_t i = 0; i < ncols && r->ok; ++i) {
    ColumnDef col;
    col.name = r->Str();
    uint8_t type = r->U8();
    if (type > static_cast<uint8_t>(Type::kBoolean)) {
      return MalformedRecord(lsn);
    }
    col.type = static_cast<Type>(type);
    col.width = static_cast<int>(r->U32());
    cols.push_back(std::move(col));
  }
  if (!r->ok) return MalformedRecord(lsn);
  return TableSchema::Create(table, std::move(cols));
}

/// Upper bound of the composite-entry range for one encoded value: the
/// rowid suffix is exactly 8 bytes, so prefix + 8×0xff dominates them.
std::string PrefixHi(const std::string& prefix) {
  std::string hi = prefix;
  hi.append(8, '\xff');
  return hi;
}

}  // namespace

// -- TableStorage ------------------------------------------------------------

TableStorage::TableStorage(StorageManager* mgr, std::string db,
                           std::string table, std::string path,
                           TxnId creator)
    : mgr_(mgr),
      db_(std::move(db)),
      table_(std::move(table)),
      path_(std::move(path)),
      creator_(creator) {}

TableStorage::~TableStorage() {
  if (disk_ != nullptr && disk_->is_open()) {
    mgr_->pool().DiscardFile(file_id_);
    disk_->Close();
  }
}

Status TableStorage::OpenOrCreate() {
  disk_ = std::make_unique<storage::DiskManager>();
  MSQL_RETURN_IF_ERROR(disk_->Open(path_));
  file_id_ = mgr_->pool().RegisterFile(disk_.get());
  heap_ = std::make_unique<storage::HeapFile>(&mgr_->pool(), file_id_);
  if (disk_->page_count() == 0) return heap_->Create();
  return heap_->Open();
}

Status TableStorage::Insert(RowId id, Row row) {
  std::string bytes = SerializeRow(row);
  MSQL_ASSIGN_OR_RETURN(
      uint64_t lsn,
      mgr_->LogRow(storage::WalRecordType::kInsert, *this, id, {bytes}));
  return heap_->Put(id, lsn, mgr_->effective_txn(), bytes);
}

Result<Row> TableStorage::Update(RowId id, Row row) {
  MSQL_ASSIGN_OR_RETURN(std::string before, heap_->Get(id));
  MSQL_ASSIGN_OR_RETURN(Row old, DeserializeRow(before));
  std::string after = SerializeRow(row);
  MSQL_ASSIGN_OR_RETURN(uint64_t lsn,
                        mgr_->LogRow(storage::WalRecordType::kUpdate, *this,
                                     id, {before, after}));
  MSQL_RETURN_IF_ERROR(heap_->Put(id, lsn, mgr_->effective_txn(), after));
  return old;
}

Result<Row> TableStorage::Delete(RowId id) {
  MSQL_ASSIGN_OR_RETURN(std::string before, heap_->Get(id));
  MSQL_ASSIGN_OR_RETURN(Row old, DeserializeRow(before));
  MSQL_ASSIGN_OR_RETURN(
      uint64_t lsn,
      mgr_->LogRow(storage::WalRecordType::kDelete, *this, id, {before}));
  MSQL_RETURN_IF_ERROR(heap_->Delete(id, lsn, mgr_->effective_txn()));
  return old;
}

Result<Row> TableStorage::Read(RowId id) const {
  MSQL_ASSIGN_OR_RETURN(std::string bytes, heap_->Get(id));
  return DeserializeRow(bytes);
}

Status TableStorage::Scan(std::vector<Row>* rows,
                          std::vector<RowId>* ids) const {
  return ScanLiveRows([rows, ids](RowId id, Row row) {
    rows->push_back(std::move(row));
    if (ids != nullptr) ids->push_back(id);
    return Status::OK();
  });
}

Status TableStorage::ScanLiveRows(
    const std::function<Status(RowId, Row)>& fn) const {
  return heap_->ScanLive(
      [&](uint64_t rowid, std::string_view bytes) -> Status {
        MSQL_ASSIGN_OR_RETURN(Row row, DeserializeRow(bytes));
        return fn(rowid, std::move(row));
      });
}

Status TableStorage::ScanSlots(
    const std::function<Status(RowId, bool)>& fn) const {
  return heap_->ScanEntries([&](uint64_t rowid, uint16_t flags) {
    return fn(rowid, flags == 1);
  });
}

Result<std::unique_ptr<Index>> TableStorage::BuildIndex(
    const std::string& index_name, const ColumnDef& column,
    size_t column_index) {
  auto index = std::make_unique<BtreeIndex>(
      index_name, column_index, column.type, mgr_,
      mgr_->NewIndexPath(db_, table_, index_name));
  MSQL_RETURN_IF_ERROR(index->OpenOrReset());
  MSQL_RETURN_IF_ERROR(ScanLiveRows([&](RowId id, Row row) {
    return index->Insert(row[column_index], id);
  }));
  // DDL logged outside a transaction is durable at once and replayed by
  // every recovery, so only a built index may reach the log.
  MSQL_RETURN_IF_ERROR(
      mgr_->OnCreateIndex(db_, table_, index_name, column.name));
  return std::unique_ptr<Index>(std::move(index));
}

Status TableStorage::DropIndex(const std::string& index_name) {
  return mgr_->OnDropIndex(db_, table_, index_name);
}

// -- BtreeIndex --------------------------------------------------------------

BtreeIndex::BtreeIndex(std::string name, size_t column_index,
                       Type column_type, StorageManager* mgr,
                       std::string path)
    : Index(std::move(name), column_index),
      column_type_(column_type),
      mgr_(mgr),
      path_(std::move(path)) {}

BtreeIndex::~BtreeIndex() {
  if (disk_ != nullptr && disk_->is_open()) {
    mgr_->pool().DiscardFile(file_id_);
    disk_->Close();
  }
}

Status BtreeIndex::OpenOrReset() {
  disk_ = std::make_unique<storage::DiskManager>();
  MSQL_RETURN_IF_ERROR(disk_->Open(path_));
  file_id_ = mgr_->pool().RegisterFile(disk_.get());
  tree_ = std::make_unique<storage::BTree>(&mgr_->pool(), file_id_);
  return tree_->Reset();
}

Status BtreeIndex::Insert(const Value& key, RowId id) {
  std::string entry = EncodeIndexEntry(key, id);
  MSQL_ASSIGN_OR_RETURN(bool existed,
                        tree_->Insert(entry, entry.size() - sizeof(RowId)));
  if (!existed) ++distinct_;
  return Status::OK();
}

Status BtreeIndex::Erase(const Value& key, RowId id) {
  std::string entry = EncodeIndexEntry(key, id);
  MSQL_ASSIGN_OR_RETURN(bool remains,
                        tree_->Erase(entry, entry.size() - sizeof(RowId)));
  if (!remains) --distinct_;
  return Status::OK();
}

Result<std::vector<RowId>> BtreeIndex::LookupIds(const Value& key) const {
  Value probe = key;
  if (!key.is_null()) {
    auto coerced = key.CoerceTo(column_type_);
    // An uncoercible probe can never equal a stored (column-typed)
    // value — same verdict a full scan's predicate would reach.
    if (!coerced.ok()) return std::vector<RowId>{};
    probe = *std::move(coerced);
  }
  std::string prefix = EncodeIndexKey(probe);
  std::vector<RowId> ids;
  MSQL_RETURN_IF_ERROR(
      tree_->ScanRange(prefix, PrefixHi(prefix), [&](std::string_view entry) {
        ids.push_back(DecodeIndexEntryRowId(entry));
        return true;
      }));
  return ids;
}

// -- StorageManager ----------------------------------------------------------

StorageManager::StorageManager(StorageConfig config)
    : config_(std::move(config)), pool_(config_.buffer_pool_pages) {}

StorageManager::~StorageManager() = default;

Status StorageManager::Open() {
  std::error_code ec;
  std::filesystem::create_directories(config_.root_dir, ec);
  if (ec) {
    return Status::Internal("cannot create storage root '" +
                            config_.root_dir + "': " + ec.message());
  }
  return wal_.Open(config_.root_dir + "/wal.log");
}

void StorageManager::SetCurrentTxn(TxnId txn, uint64_t session,
                                   std::string db) {
  current_txn_ = txn;
  current_session_ = session;
  current_db_ = std::move(db);
}

void StorageManager::ClearCurrentTxn() {
  current_txn_ = 0;
  current_session_ = 0;
  current_db_.clear();
}

std::string StorageManager::HeapPath(const std::string& db,
                                     const std::string& table,
                                     uint64_t lsn) const {
  return config_.root_dir + "/" + db + "." + table + "." +
         std::to_string(lsn) + ".heap";
}

std::string StorageManager::NewIndexPath(const std::string& db,
                                         const std::string& table,
                                         const std::string& index) {
  return config_.root_dir + "/" + db + "." + table + "." + index + "." +
         std::to_string(++index_files_) + ".btree";
}

Status StorageManager::EnsureBegun() {
  TxnId txn = effective_txn();
  if (txn == 0 || begun_.count(txn) > 0) return Status::OK();
  std::string payload;
  AppendU64(&payload, txn);
  AppendU64(&payload, current_session_);
  AppendStr(&payload, current_db_);
  MSQL_RETURN_IF_ERROR(
      wal_.Append(storage::WalRecordType::kBegin, std::move(payload))
          .status());
  begun_.insert(txn);
  return Status::OK();
}

Result<uint64_t> StorageManager::LogRow(
    storage::WalRecordType type, const TableStorage& ts, RowId id,
    std::initializer_list<std::string_view> images) {
  if (undo_mode_ && undo_txn_ != 0 && ts.creator() == undo_txn_) {
    return uint64_t{0};
  }
  MSQL_RETURN_IF_ERROR(EnsureBegun());
  std::string payload;
  AppendU64(&payload, effective_txn());
  AppendStr(&payload, ts.db());
  AppendStr(&payload, ts.table());
  AppendU64(&payload, id);
  for (std::string_view image : images) AppendStr(&payload, image);
  return wal_.Append(type, std::move(payload));
}

Result<uint64_t> StorageManager::AppendDdl(uint8_t op, const std::string& db,
                                           const std::string& a,
                                           const std::string& b,
                                           const std::string& c,
                                           const TableSchema* schema) {
  MSQL_RETURN_IF_ERROR(EnsureBegun());
  std::string payload;
  AppendU64(&payload, effective_txn());
  payload.push_back(static_cast<char>(op));
  AppendStr(&payload, db);
  AppendStr(&payload, a);
  AppendStr(&payload, b);
  AppendStr(&payload, c);
  if (schema != nullptr) {
    AppendSchema(&payload, *schema);
  } else {
    AppendU32(&payload, 0);
  }
  MSQL_ASSIGN_OR_RETURN(
      uint64_t lsn,
      wal_.Append(storage::WalRecordType::kDdl, std::move(payload)));
  // Outside any transaction no COMMIT will flush it: make it durable now.
  if (effective_txn() == 0) MSQL_RETURN_IF_ERROR(wal_.Flush());
  return lsn;
}

Status StorageManager::OnCreateDatabase(const std::string& db) {
  return AppendDdl(kDdlCreateDb, db, "", "", "", nullptr).status();
}

Result<std::unique_ptr<TableStorage>> StorageManager::CreateTableStorage(
    const std::string& db, const TableSchema& schema) {
  const std::string& table = schema.table_name();
  MSQL_ASSIGN_OR_RETURN(
      uint64_t lsn, AppendDdl(kDdlCreateTable, db, table, "", "", &schema));
  auto ts = std::make_unique<TableStorage>(this, db, table,
                                           HeapPath(db, table, lsn),
                                           effective_txn());
  MSQL_RETURN_IF_ERROR(ts->OpenOrCreate());
  return ts;
}

Status StorageManager::OnDropTable(const std::string& db,
                                   const std::string& table) {
  // During rollback the drop undoes a create that recovery discards
  // wholesale; a catalog record would be a lie.
  if (undo_mode_) return Status::OK();
  return AppendDdl(kDdlDropTable, db, table, "", "", nullptr).status();
}

Status StorageManager::OnCreateIndex(const std::string& db,
                                     const std::string& table,
                                     const std::string& index,
                                     const std::string& column) {
  if (undo_mode_ || replaying_) return Status::OK();
  return AppendDdl(kDdlCreateIndex, db, table, index, column, nullptr)
      .status();
}

Status StorageManager::OnDropIndex(const std::string& db,
                                   const std::string& table,
                                   const std::string& index) {
  if (undo_mode_) return Status::OK();
  return AppendDdl(kDdlDropIndex, db, table, index, "", nullptr).status();
}

Status StorageManager::OnCreateView(const std::string& db,
                                    const std::string& view,
                                    const std::string& sql) {
  if (undo_mode_) return Status::OK();
  return AppendDdl(kDdlCreateView, db, view, sql, "", nullptr).status();
}

Status StorageManager::OnDropView(const std::string& db,
                                  const std::string& view) {
  if (undo_mode_) return Status::OK();
  return AppendDdl(kDdlDropView, db, view, "", "", nullptr).status();
}

Status StorageManager::OnCommit(TxnId txn) {
  if (begun_.count(txn) > 0) {
    std::string payload;
    AppendU64(&payload, txn);
    MSQL_RETURN_IF_ERROR(
        wal_.Append(storage::WalRecordType::kCommit, std::move(payload))
            .status());
    MSQL_RETURN_IF_ERROR(wal_.Flush());
    begun_.erase(txn);
  }
  pool_.ReleaseTxn(txn);
  return Status::OK();
}

Status StorageManager::OnAbort(TxnId txn) {
  if (begun_.count(txn) > 0) {
    std::string payload;
    AppendU64(&payload, txn);
    MSQL_RETURN_IF_ERROR(
        wal_.Append(storage::WalRecordType::kAbort, std::move(payload))
            .status());
    MSQL_RETURN_IF_ERROR(wal_.Flush());
    begun_.erase(txn);
  }
  pool_.ReleaseTxn(txn);
  return Status::OK();
}

Status StorageManager::OnPrepare(TxnId txn, uint64_t session,
                                 const std::string& db) {
  if (begun_.count(txn) == 0) {
    // Force BEGIN even for a read-only transaction: the prepared state
    // itself (session identity included) must survive a crash.
    std::string payload;
    AppendU64(&payload, txn);
    AppendU64(&payload, session);
    AppendStr(&payload, db);
    MSQL_RETURN_IF_ERROR(
        wal_.Append(storage::WalRecordType::kBegin, std::move(payload))
            .status());
    begun_.insert(txn);
  }
  std::string payload;
  AppendU64(&payload, txn);
  MSQL_RETURN_IF_ERROR(
      wal_.Append(storage::WalRecordType::kPrepare, std::move(payload))
          .status());
  MSQL_RETURN_IF_ERROR(wal_.Flush());
  pool_.ReleaseTxn(txn);
  return Status::OK();
}

Status StorageManager::Checkpoint(size_t max_pages) {
  obs::ScopedSpan span(tracer_, "storage.checkpoint", "storage");
  const int64_t writes_before = pool_.page_writes();
  MSQL_RETURN_IF_ERROR(wal_.Flush());
  MSQL_RETURN_IF_ERROR(pool_.FlushEligible(max_pages));
  std::string payload;
  AppendU64(&payload, 0);
  MSQL_RETURN_IF_ERROR(
      wal_.Append(storage::WalRecordType::kCheckpoint, std::move(payload))
          .status());
  Status flushed = wal_.Flush();
  span.Annotate("pages_written", pool_.page_writes() - writes_before);
  span.Annotate("flushed_lsn", static_cast<int64_t>(wal_.flushed_lsn()));
  return flushed;
}

void StorageManager::SimulateCrash() {
  pool_.DropAll();
  wal_.DropUnflushed();
  begun_.clear();
  current_txn_ = 0;
  current_session_ = 0;
  current_db_.clear();
  undo_mode_ = false;
}

namespace {

/// One table incarnation as replay reaches each record.
struct ReplayedTable {
  TableSchema schema;
  std::unique_ptr<TableStorage> storage;
  /// (index name, column name) in creation order.
  std::vector<std::pair<std::string, std::string>> indexes;
};

struct ReplayedDatabase {
  std::map<std::string, ReplayedTable> tables;
  /// (view name, defining SELECT text) in creation order.
  std::vector<std::pair<std::string, std::string>> views;
};

/// A Table over a replayed incarnation, its indexes rebuilt (Recover's
/// replaying state keeps the rebuilds out of the log).
Result<std::unique_ptr<Table>> OpenReplayed(ReplayedTable replayed) {
  MSQL_ASSIGN_OR_RETURN(std::unique_ptr<Table> table,
                        Table::Open(std::move(replayed.schema),
                                    std::move(replayed.storage)));
  for (const auto& [name, column] : replayed.indexes) {
    MSQL_RETURN_IF_ERROR(table->CreateIndex(name, column));
  }
  return table;
}

Result<std::unique_ptr<SelectStmt>> ParseView(const std::string& name,
                                              const std::string& sql) {
  MSQL_ASSIGN_OR_RETURN(StatementPtr stmt, ParseSql(sql));
  if (stmt->kind() != StatementKind::kSelect) {
    return Status::Corrupted("recovered view '" + name +
                             "' does not parse as a SELECT");
  }
  return std::unique_ptr<SelectStmt>(static_cast<SelectStmt*>(stmt.release()));
}

}  // namespace

Result<RecoveryReport> StorageManager::Recover() {
  replaying_ = true;
  Result<RecoveryReport> report = Replay();
  replaying_ = false;
  return report;
}

Result<RecoveryReport> StorageManager::Replay() {
  obs::ScopedSpan span(tracer_, "storage.recover", "storage");
  begun_.clear();
  undo_mode_ = false;
  current_txn_ = 0;
  pool_.DropAll();

  MSQL_ASSIGN_OR_RETURN(std::vector<storage::WalRecord> records,
                        wal_.ReadAll());
  span.Annotate("wal_records", static_cast<int64_t>(records.size()));

  // Pass 1: transaction fates and identities. A transaction with no
  // outcome record was active at the crash — its records are discarded
  // (no-steal guarantees none of its pages reached disk, and any that
  // did after a PREPARE are repaired by replayed compensations).
  enum class Fate { kActive, kCommitted, kAborted, kPrepared };
  std::map<uint64_t, Fate> fate;
  struct TxnIdent {
    uint64_t session = 0;
    std::string db;
  };
  std::map<uint64_t, TxnIdent> ident;
  RecoveryReport report;

  for (const storage::WalRecord& rec : records) {
    ByteReader r{rec.payload};
    uint64_t txn = r.U64();
    if (!r.ok) return MalformedRecord(rec.lsn);
    report.max_txn_id = std::max<TxnId>(report.max_txn_id, txn);
    switch (rec.type) {
      case storage::WalRecordType::kBegin: {
        TxnIdent id;
        id.session = r.U64();
        id.db = r.Str();
        if (!r.ok) return MalformedRecord(rec.lsn);
        report.max_session_id = std::max(report.max_session_id, id.session);
        ident[txn] = std::move(id);
        fate.emplace(txn, Fate::kActive);
        break;
      }
      case storage::WalRecordType::kCommit:
        fate[txn] = Fate::kCommitted;
        break;
      case storage::WalRecordType::kAbort:
        fate[txn] = Fate::kAborted;
        break;
      case storage::WalRecordType::kPrepare:
        fate[txn] = Fate::kPrepared;
        break;
      default:
        fate.emplace(txn, Fate::kActive);
        break;
    }
  }

  auto applied = [&](uint64_t txn) {
    if (txn == 0) return true;
    Fate f = fate[txn];
    return f == Fate::kCommitted || f == Fate::kPrepared;
  };
  auto is_prepared = [&](uint64_t txn) {
    return txn != 0 && fate[txn] == Fate::kPrepared;
  };

  std::map<uint64_t, PreparedTxnImage> prepared;
  std::map<uint64_t, std::set<std::string>> prepared_locks;
  for (const auto& [txn, f] : fate) {
    if (f != Fate::kPrepared) continue;
    PreparedTxnImage image;
    image.txn_id = txn;
    image.session_id = ident[txn].session;
    image.db = ident[txn].db;
    prepared[txn] = std::move(image);
  }
  // Appends the undo record inverting a prepared transaction's change
  // to `db`.`name`, which the transaction still holds locked.
  auto undo_for = [&](uint64_t txn, UndoRecord::Kind kind,
                      const std::string& db,
                      const std::string& name) -> UndoRecord& {
    prepared_locks[txn].insert(LockKey(db, name));
    UndoRecord& u = prepared[txn].undo.emplace_back();
    u.kind = kind;
    u.database = db;
    u.table = name;
    return u;
  };

  // Pass 2: catalog replay + LSN-guarded redo, in log order.
  std::map<std::string, ReplayedDatabase> catalog;
  auto find_table = [&](const std::string& db,
                        const std::string& table) -> ReplayedTable* {
    auto db_it = catalog.find(db);
    if (db_it == catalog.end()) return nullptr;
    auto it = db_it->second.tables.find(table);
    return it == db_it->second.tables.end() ? nullptr : &it->second;
  };
  for (const storage::WalRecord& rec : records) {
    ByteReader r{rec.payload};
    uint64_t txn = r.U64();
    switch (rec.type) {
      case storage::WalRecordType::kDdl: {
        uint8_t op = r.U8();
        std::string db = r.Str();
        std::string a = r.Str();
        std::string b = r.Str();
        std::string c = r.Str();
        if (!r.ok) return MalformedRecord(rec.lsn);
        if (!applied(txn)) break;
        ReplayedDatabase& database = catalog[db];
        switch (op) {
          case kDdlCreateDb:
            break;
          case kDdlCreateTable: {
            MSQL_ASSIGN_OR_RETURN(TableSchema schema,
                                  ReadSchema(&r, a, rec.lsn));
            auto ts = std::make_unique<TableStorage>(
                this, db, a, HeapPath(db, a, rec.lsn), txn);
            MSQL_RETURN_IF_ERROR(ts->OpenOrCreate());
            // The durable tail pointer may lag data pages that
            // committed rows already occupy; never append over them.
            MSQL_RETURN_IF_ERROR(ts->heap()->ResetTail());
            database.tables[a] = {std::move(schema), std::move(ts), {}};
            if (is_prepared(txn)) {
              undo_for(txn, UndoRecord::Kind::kCreateTable, db, a);
            }
            break;
          }
          case kDdlDropTable: {
            auto it = database.tables.find(a);
            if (it == database.tables.end()) break;
            if (is_prepared(txn)) {
              // Rolling the drop back re-attaches this very incarnation.
              MSQL_ASSIGN_OR_RETURN(std::unique_ptr<Table> dropped,
                                    OpenReplayed(std::move(it->second)));
              undo_for(txn, UndoRecord::Kind::kDropTable, db, a)
                  .dropped_table = std::move(dropped);
            }
            database.tables.erase(it);
            break;
          }
          case kDdlCreateIndex: {
            ReplayedTable* table = find_table(db, a);
            if (table == nullptr) break;
            table->indexes.emplace_back(b, c);
            if (is_prepared(txn)) {
              undo_for(txn, UndoRecord::Kind::kCreateIndex, db, a)
                  .index_name = b;
            }
            break;
          }
          case kDdlDropIndex: {
            ReplayedTable* table = find_table(db, a);
            if (table == nullptr) break;
            auto index = std::find_if(
                table->indexes.begin(), table->indexes.end(),
                [&](const auto& entry) { return entry.first == b; });
            if (index == table->indexes.end()) break;
            if (is_prepared(txn)) {
              UndoRecord& u =
                  undo_for(txn, UndoRecord::Kind::kDropIndex, db, a);
              u.index_name = b;
              u.index_column = index->second;
            }
            table->indexes.erase(index);
            break;
          }
          case kDdlCreateView: {
            database.views.emplace_back(a, b);
            if (is_prepared(txn)) {
              undo_for(txn, UndoRecord::Kind::kCreateView, db, a);
            }
            break;
          }
          case kDdlDropView: {
            auto view = std::find_if(
                database.views.begin(), database.views.end(),
                [&](const auto& entry) { return entry.first == a; });
            if (view == database.views.end()) break;
            if (is_prepared(txn)) {
              MSQL_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> definition,
                                    ParseView(a, view->second));
              undo_for(txn, UndoRecord::Kind::kDropView, db, a)
                  .dropped_view = std::move(definition);
            }
            database.views.erase(view);
            break;
          }
          default:
            return MalformedRecord(rec.lsn);
        }
        break;
      }
      case storage::WalRecordType::kInsert:
      case storage::WalRecordType::kUpdate:
      case storage::WalRecordType::kDelete: {
        std::string db = r.Str();
        std::string table = r.Str();
        uint64_t rowid = r.U64();
        if (!r.ok) return MalformedRecord(rec.lsn);
        if (!applied(txn)) break;
        ReplayedTable* replayed = find_table(db, table);
        // A compensation can reference a table whose creating
        // transaction was discarded; its data was discarded with it.
        if (replayed == nullptr) break;
        storage::HeapFile* heap = replayed->storage->heap();
        if (rec.type == storage::WalRecordType::kInsert) {
          std::string bytes = r.Str();
          if (!r.ok) return MalformedRecord(rec.lsn);
          MSQL_RETURN_IF_ERROR(heap->RedoPut(rowid, rec.lsn, bytes));
          if (is_prepared(txn)) {
            undo_for(txn, UndoRecord::Kind::kInsert, db, table).row_id =
                rowid;
          }
          break;
        }
        std::string before = r.Str();
        std::string after =
            rec.type == storage::WalRecordType::kUpdate ? r.Str() : "";
        if (!r.ok) return MalformedRecord(rec.lsn);
        if (rec.type == storage::WalRecordType::kUpdate) {
          MSQL_RETURN_IF_ERROR(heap->RedoPut(rowid, rec.lsn, after));
        } else {
          MSQL_RETURN_IF_ERROR(heap->RedoDelete(rowid, rec.lsn));
        }
        if (is_prepared(txn)) {
          UndoRecord& u = undo_for(txn,
                                   rec.type == storage::WalRecordType::kUpdate
                                       ? UndoRecord::Kind::kUpdate
                                       : UndoRecord::Kind::kDelete,
                                   db, table);
          u.row_id = rowid;
          MSQL_ASSIGN_OR_RETURN(u.before, DeserializeRow(before));
        }
        break;
      }
      default:
        break;
    }
  }

  // Open every surviving incarnation, in database and table name order.
  for (auto& [db, database] : catalog) {
    RecoveredDatabaseInfo& info = report.databases[db];
    for (auto& [name, replayed] : database.tables) {
      MSQL_ASSIGN_OR_RETURN(info.tables[name],
                            OpenReplayed(std::move(replayed)));
    }
    for (const auto& [name, sql] : database.views) {
      MSQL_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> definition,
                            ParseView(name, sql));
      info.views.emplace_back(name, std::move(definition));
    }
  }

  for (auto& [txn, image] : prepared) {
    image.lock_keys.assign(prepared_locks[txn].begin(),
                           prepared_locks[txn].end());
    // The eventual COMMIT/ROLLBACK must reach the WAL even if the
    // recovered transaction does nothing further.
    begun_.insert(txn);
    report.prepared.push_back(std::move(image));
  }
  return report;
}

}  // namespace msql::relational
