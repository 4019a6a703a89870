#include "relational/table.h"

#include "common/string_util.h"
#include "relational/index.h"
#include "relational/storage_engine.h"

namespace msql::relational {

Table::Table(TableSchema schema) : schema_(std::move(schema)) {}

Table::Table(TableSchema schema, TableStorage* storage)
    : schema_(std::move(schema)), storage_(storage) {}

Table::~Table() = default;

Result<std::unique_ptr<Table>> Table::CreatePaged(TableSchema schema,
                                                  TableStorage* storage) {
  std::unique_ptr<Table> table(new Table(std::move(schema), storage));
  MSQL_RETURN_IF_ERROR(table->LoadFromStorage());
  return table;
}

Status Table::LoadFromStorage() {
  std::vector<std::pair<RowId, uint16_t>> entries;
  MSQL_RETURN_IF_ERROR(storage_->heap()->ScanEntries(
      [&](uint64_t rowid, uint16_t flags) -> Status {
        entries.emplace_back(rowid, flags);
        return Status::OK();
      }));
  next_rowid_ = entries.empty() ? 0 : entries.back().first + 1;
  live_count_ = 0;
  free_slots_.clear();
  // Rowids without a live entry — tombstoned, or gaps left by discarded
  // transactions — are reusable.
  size_t next_entry = 0;
  for (RowId id = 0; id < next_rowid_; ++id) {
    bool live = false;
    if (next_entry < entries.size() && entries[next_entry].first == id) {
      live = entries[next_entry].second == 1;
      ++next_entry;
    }
    if (live) {
      ++live_count_;
    } else {
      free_slots_.insert(id);
    }
  }
  return Status::OK();
}

Result<Row> Table::Normalize(Row row) const {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " does not match table '" +
        schema_.table_name() + "' with " +
        std::to_string(schema_.num_columns()) + " columns");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    MSQL_ASSIGN_OR_RETURN(row[i], row[i].CoerceTo(schema_.column(i).type));
  }
  return row;
}

Result<Row> Table::ReadRow(RowId id) const {
  if (!IsLive(id)) {
    return Status::Internal("read of dead slot " + std::to_string(id));
  }
  if (storage_ != nullptr) return storage_->ReadRow(id);
  return *slots_[id];
}

Result<RowId> Table::Insert(Row row) {
  MSQL_ASSIGN_OR_RETURN(Row normalized, Normalize(std::move(row)));
  if (storage_ != nullptr) {
    // Reuse the lowest tombstoned slot, as in-memory mode does.
    RowId id = free_slots_.empty() ? next_rowid_ : *free_slots_.begin();
    MSQL_RETURN_IF_ERROR(storage_->LoggedInsert(id, normalized));
    Status indexed = IndexInsert(normalized, id);
    if (!indexed.ok()) {
      // Compensate the heap write so the slot is not half-born; the
      // compensation is logged like any other mutation.
      (void)storage_->LoggedDelete(id, normalized);
      return indexed;
    }
    if (id == next_rowid_) {
      ++next_rowid_;
    } else {
      free_slots_.erase(id);
    }
    ++live_count_;
    return id;
  }
  RowId id;
  if (!free_slots_.empty()) {
    // Reuse the lowest tombstoned slot so slot_count() stays bounded by
    // the high-water mark of live rows, not by total inserts.
    id = *free_slots_.begin();
    free_slots_.erase(free_slots_.begin());
    slots_[id] = std::move(normalized);
  } else {
    slots_.emplace_back(std::move(normalized));
    id = static_cast<RowId>(slots_.size() - 1);
  }
  ++live_count_;
  MSQL_RETURN_IF_ERROR(IndexInsert(*slots_[id], id));
  return id;
}

Status Table::ResurrectRow(RowId id, Row row) {
  if (storage_ != nullptr) {
    if (IsLive(id)) {
      return Status::Internal("resurrect of live slot " + std::to_string(id));
    }
    MSQL_RETURN_IF_ERROR(storage_->LoggedInsert(id, row));
    free_slots_.erase(id);
    if (id >= next_rowid_) next_rowid_ = id + 1;
    ++live_count_;
    return IndexInsert(row, id);
  }
  if (id >= slots_.size()) {
    return Status::Internal("resurrect of unknown slot " + std::to_string(id));
  }
  if (slots_[id].has_value()) {
    return Status::Internal("resurrect of live slot " + std::to_string(id));
  }
  slots_[id] = std::move(row);
  free_slots_.erase(id);
  ++live_count_;
  return IndexInsert(*slots_[id], id);
}

Result<Row> Table::Delete(RowId id) {
  if (!IsLive(id)) {
    return Status::Internal("delete of dead slot " + std::to_string(id));
  }
  if (storage_ != nullptr) {
    MSQL_ASSIGN_OR_RETURN(Row old, storage_->ReadRow(id));
    MSQL_RETURN_IF_ERROR(storage_->LoggedDelete(id, old));
    free_slots_.insert(id);
    --live_count_;
    MSQL_RETURN_IF_ERROR(IndexErase(old, id));
    return old;
  }
  Row old = std::move(*slots_[id]);
  slots_[id].reset();
  free_slots_.insert(id);
  --live_count_;
  MSQL_RETURN_IF_ERROR(IndexErase(old, id));
  return old;
}

Result<Row> Table::Update(RowId id, Row new_row) {
  if (!IsLive(id)) {
    return Status::Internal("update of dead slot " + std::to_string(id));
  }
  MSQL_ASSIGN_OR_RETURN(Row normalized, Normalize(std::move(new_row)));
  if (storage_ != nullptr) {
    MSQL_ASSIGN_OR_RETURN(Row old, storage_->ReadRow(id));
    MSQL_RETURN_IF_ERROR(storage_->LoggedUpdate(id, old, normalized));
    MSQL_RETURN_IF_ERROR(IndexErase(old, id));
    MSQL_RETURN_IF_ERROR(IndexInsert(normalized, id));
    return old;
  }
  Row old = std::move(*slots_[id]);
  slots_[id] = std::move(normalized);
  MSQL_RETURN_IF_ERROR(IndexErase(old, id));
  MSQL_RETURN_IF_ERROR(IndexInsert(*slots_[id], id));
  return old;
}

std::vector<RowId> Table::ScanRowIds() const {
  std::vector<RowId> ids;
  ids.reserve(live_count_);
  if (storage_ != nullptr) {
    for (RowId id = 0; id < next_rowid_; ++id) {
      if (free_slots_.count(id) == 0) ids.push_back(id);
    }
    return ids;
  }
  for (RowId id = 0; id < slots_.size(); ++id) {
    if (slots_[id].has_value()) ids.push_back(id);
  }
  return ids;
}

Result<std::vector<Row>> Table::ScanRows() const {
  std::vector<Row> rows;
  rows.reserve(live_count_);
  if (storage_ != nullptr) {
    MSQL_RETURN_IF_ERROR(
        storage_->ScanLiveRows([&](RowId, Row row) -> Status {
          rows.push_back(std::move(row));
          return Status::OK();
        }));
    return rows;
  }
  for (const auto& slot : slots_) {
    if (slot.has_value()) rows.push_back(*slot);
  }
  return rows;
}

Status Table::CreateIndex(std::string_view index_name,
                          std::string_view column) {
  return CreateIndexInternal(index_name, column, /*log_ddl=*/true);
}

Status Table::RestoreIndex(std::string_view index_name,
                           std::string_view column) {
  return CreateIndexInternal(index_name, column, /*log_ddl=*/false);
}

Status Table::CreateIndexInternal(std::string_view index_name,
                                  std::string_view column, bool log_ddl) {
  std::string key = ToLower(index_name);
  if (indexes_.count(key) > 0) {
    return Status::AlreadyExists("index '" + key + "' already exists on '" +
                                 schema_.table_name() + "'");
  }
  auto col = schema_.FindColumn(column);
  if (!col.has_value()) {
    return Status::NotFound("column '" + std::string(column) +
                            "' not in table '" + schema_.table_name() + "'");
  }
  if (storage_ != nullptr) {
    MSQL_ASSIGN_OR_RETURN(
        std::unique_ptr<Index> index,
        storage_->manager()->BuildIndex(storage_, key,
                                        schema_.column(*col).name, *col,
                                        schema_.column(*col).type, log_ddl));
    indexes_.emplace(std::move(key), std::move(index));
    return Status::OK();
  }
  auto index = std::make_unique<Index>(key, *col);
  for (RowId id = 0; id < slots_.size(); ++id) {
    if (slots_[id].has_value()) {
      MSQL_RETURN_IF_ERROR(index->Insert((*slots_[id])[*col], id));
    }
  }
  indexes_.emplace(std::move(key), std::move(index));
  return Status::OK();
}

Result<std::string> Table::DropIndex(std::string_view index_name) {
  auto it = indexes_.find(ToLower(index_name));
  if (it == indexes_.end()) {
    return Status::NotFound("index '" + std::string(index_name) +
                            "' does not exist on '" + schema_.table_name() +
                            "'");
  }
  std::string column = schema_.column(it->second->column_index()).name;
  if (storage_ != nullptr) {
    MSQL_RETURN_IF_ERROR(storage_->manager()->OnDropIndex(
        storage_->db(), storage_->table(), it->first));
  }
  indexes_.erase(it);
  return column;
}

bool Table::HasIndex(std::string_view index_name) const {
  return indexes_.count(ToLower(index_name)) > 0;
}

std::vector<std::string> Table::IndexNames() const {
  std::vector<std::string> names;
  names.reserve(indexes_.size());
  for (const auto& [name, index] : indexes_) names.push_back(name);
  return names;
}

const Index* Table::FindIndexOnColumn(std::string_view column) const {
  auto col = schema_.FindColumn(column);
  if (!col.has_value()) return nullptr;
  for (const auto& [name, index] : indexes_) {
    if (index->column_index() == *col) return index.get();
  }
  return nullptr;
}

Status Table::IndexInsert(const Row& row, RowId id) {
  std::vector<Index*> done;
  for (const auto& [name, index] : indexes_) {
    Status status = index->Insert(row[index->column_index()], id);
    if (!status.ok()) {
      // Back out the entries already made so no index half-covers the
      // row (best effort; the transaction is about to abort anyway).
      for (Index* undo : done) {
        (void)undo->Erase(row[undo->column_index()], id);
      }
      return status;
    }
    done.push_back(index.get());
  }
  return Status::OK();
}

Status Table::IndexErase(const Row& row, RowId id) {
  Status first_error = Status::OK();
  for (const auto& [name, index] : indexes_) {
    Status status = index->Erase(row[index->column_index()], id);
    if (!status.ok() && first_error.ok()) first_error = status;
  }
  return first_error;
}

}  // namespace msql::relational
