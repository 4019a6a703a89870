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

Status LockManager::Acquire(Transaction* txn, const std::string& resource,
                            Mode mode) {
  LockEntry& entry = locks_[resource];
  auto self = entry.holders.find(txn->id());
  bool upgrade = self != entry.holders.end();
  last_conflict_.clear();
  // A held X covers both modes and a held S covers S: nothing changes.
  if (upgrade &&
      (self->second == Mode::kExclusive || mode == Mode::kShared)) {
    return Status::OK();
  }
  // What is left is a new holder or an S holder asking for X (an
  // upgrade). Only S and S coexist.
  for (const auto& [holder, held] : entry.holders) {
    if (holder == txn->id()) continue;
    if (held == Mode::kExclusive || mode == Mode::kExclusive) {
      last_conflict_.push_back(holder);
    }
  }
  if (!last_conflict_.empty()) {
    std::string what = upgrade ? "lock upgrade conflict on " + resource
                               : "lock conflict on " + resource;
    return wait_policy_ == WaitPolicy::kNoWait ? Status::Aborted(what)
                                               : Status::Busy(what);
  }
  entry.holders[txn->id()] = mode;
  txn->held_locks().insert(resource);
  if (audit_) audit_log_.emplace_back(resource, mode);
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
