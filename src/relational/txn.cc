#include "relational/txn.h"

namespace msql::relational {

std::string_view TxnStateName(TxnState state) {
  switch (state) {
    case TxnState::kActive: return "ACTIVE";
    case TxnState::kPrepared: return "PREPARED";
    case TxnState::kCommitted: return "COMMITTED";
    case TxnState::kAborted: return "ABORTED";
  }
  return "UNKNOWN";
}

std::string LockKey(std::string_view db, std::string_view table) {
  std::string key;
  key.reserve(db.size() + 1 + table.size());
  key.append(db).append(".").append(table);
  return key;
}

namespace {

/// Applies the inverse of one undo record.
Status ApplyOneUndo(
    UndoRecord& rec,
    const std::map<std::string, std::unique_ptr<Database>>& databases) {
  auto db_it = databases.find(rec.database);
  if (db_it == databases.end()) {
    return Status::Internal("undo references unknown database '" +
                            rec.database + "'");
  }
  Database* db = db_it->second.get();
  switch (rec.kind) {
    case UndoRecord::Kind::kInsert: {
      MSQL_ASSIGN_OR_RETURN(Table * table, db->GetTable(rec.table));
      MSQL_ASSIGN_OR_RETURN(Row removed, table->Delete(rec.row_id));
      (void)removed;
      break;
    }
    case UndoRecord::Kind::kDelete: {
      MSQL_ASSIGN_OR_RETURN(Table * table, db->GetTable(rec.table));
      MSQL_RETURN_IF_ERROR(
        table->ResurrectRow(rec.row_id, std::move(rec.before)));
      break;
    }
    case UndoRecord::Kind::kUpdate: {
      MSQL_ASSIGN_OR_RETURN(Table * table, db->GetTable(rec.table));
      MSQL_ASSIGN_OR_RETURN(Row overwritten,
                          table->Update(rec.row_id, std::move(rec.before)));
      (void)overwritten;
      break;
    }
    case UndoRecord::Kind::kCreateTable: {
      MSQL_ASSIGN_OR_RETURN(auto dropped, db->DropTable(rec.table));
      (void)dropped;  // discard: the table was created by this txn
      break;
    }
    case UndoRecord::Kind::kDropTable: {
      MSQL_RETURN_IF_ERROR(db->RestoreTable(std::move(rec.dropped_table)));
      break;
    }
    case UndoRecord::Kind::kCreateView: {
      MSQL_ASSIGN_OR_RETURN(auto dropped, db->DropView(rec.table));
      (void)dropped;  // the view was created by this txn
      break;
    }
    case UndoRecord::Kind::kDropView: {
      MSQL_RETURN_IF_ERROR(
        db->CreateView(rec.table, std::move(rec.dropped_view)));
      break;
    }
    case UndoRecord::Kind::kCreateIndex: {
      MSQL_ASSIGN_OR_RETURN(Table * table, db->GetTable(rec.table));
      MSQL_RETURN_IF_ERROR(table->DropIndex(rec.index_name).status());
      break;
    }
    case UndoRecord::Kind::kDropIndex: {
      MSQL_ASSIGN_OR_RETURN(Table * table, db->GetTable(rec.table));
      MSQL_RETURN_IF_ERROR(
        table->CreateIndex(rec.index_name, rec.index_column));
      break;
    }
  }
  return Status::OK();
}

}  // namespace

Status Transaction::ApplyUndo(
    const std::map<std::string, std::unique_ptr<Database>>& databases,
    size_t fail_after_records) {
  size_t applied = 0;
  Status status = Status::OK();
  for (auto it = undo_log_.rbegin(); it != undo_log_.rend(); ++it) {
    if (applied >= fail_after_records) {
      status = Status::Internal(
          "injected undo failure after " + std::to_string(applied) +
          " of " + std::to_string(undo_log_.size()) + " undo records");
      break;
    }
    status = ApplyOneUndo(*it, databases);
    if (!status.ok()) break;
    ++applied;
  }
  if (!status.ok()) {
    // Drop the already-undone suffix so the log holds exactly the
    // records still pending — the caller's partial-rollback diagnostic.
    undo_log_.resize(undo_log_.size() - applied);
    return status;
  }
  undo_log_.clear();
  return Status::OK();
}

namespace {

/// The held mode already grants everything the request needs.
bool Covers(LockManager::Mode held, LockManager::Mode requested) {
  using Mode = LockManager::Mode;
  if (held == requested) return true;
  switch (held) {
    case Mode::kExclusive:
      return true;
    case Mode::kShared:
    case Mode::kIntentionExclusive:
      return requested == Mode::kIntentionShared;
    case Mode::kIntentionShared:
      return false;
  }
  return false;
}

/// Least mode granting both (no SIX mode here: {S, IX} escalates to X,
/// trading a little concurrency for a four-mode table).
LockManager::Mode Lub(LockManager::Mode a, LockManager::Mode b) {
  if (Covers(a, b)) return a;
  if (Covers(b, a)) return b;
  return LockManager::Mode::kExclusive;
}

}  // namespace

bool LockManager::Compatible(Mode holding, Mode requested) {
  switch (holding) {
    case Mode::kIntentionShared:
      return requested != Mode::kExclusive;
    case Mode::kIntentionExclusive:
      return requested == Mode::kIntentionShared ||
             requested == Mode::kIntentionExclusive;
    case Mode::kShared:
      return requested == Mode::kIntentionShared ||
             requested == Mode::kShared;
    case Mode::kExclusive:
      return false;
  }
  return false;
}

Status LockManager::Acquire(Transaction* txn, const std::string& resource,
                            Mode mode) {
  // Hierarchical resources ("db.table") take the database-level
  // intention lock first; a conflict there is the request's conflict.
  if (mode == Mode::kShared || mode == Mode::kExclusive) {
    size_t dot = resource.find('.');
    if (dot != std::string::npos && dot > 0) {
      Mode intent = mode == Mode::kShared ? Mode::kIntentionShared
                                          : Mode::kIntentionExclusive;
      MSQL_RETURN_IF_ERROR(
          AcquireOne(txn, resource.substr(0, dot), intent));
    }
  }
  return AcquireOne(txn, resource, mode);
}

Status LockManager::AcquireOne(Transaction* txn, const std::string& resource,
                               Mode mode) {
  LockEntry& entry = locks_[resource];
  auto self = entry.holders.find(txn->id());
  bool upgrade = self != entry.holders.end();
  if (upgrade && Covers(self->second, mode)) {
    last_conflict_.clear();
    return Status::OK();
  }
  Mode target = upgrade ? Lub(self->second, mode) : mode;
  last_conflict_.clear();
  for (const auto& [holder, held] : entry.holders) {
    if (holder == txn->id()) continue;
    if (!Compatible(held, target)) last_conflict_.push_back(holder);
  }
  if (!last_conflict_.empty()) {
    if (entry.holders.empty()) locks_.erase(resource);
    std::string what = upgrade ? "lock upgrade conflict on " + resource
                               : "lock conflict on " + resource;
    return wait_policy_ == WaitPolicy::kNoWait ? Status::Aborted(what)
                                               : Status::Busy(what);
  }
  entry.holders[txn->id()] = target;
  txn->held_locks().insert(resource);
  if (audit_) audit_log_.emplace_back(resource, target);
  return Status::OK();
}

void LockManager::ReleaseAll(Transaction* txn) {
  for (const auto& resource : txn->held_locks()) {
    auto it = locks_.find(resource);
    if (it == locks_.end()) continue;
    it->second.holders.erase(txn->id());
    if (it->second.holders.empty()) locks_.erase(it);
  }
  txn->held_locks().clear();
}

}  // namespace msql::relational
