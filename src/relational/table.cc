#include "relational/table.h"

#include <algorithm>
#include <optional>

#include "common/string_util.h"
#include "relational/index.h"

namespace msql::relational {

namespace {

struct ValueLess {
  bool operator()(const Value& a, const Value& b) const {
    return a.Compare(b) < 0;
  }
};

/// In-memory index: key → ascending RowIds.
class MapIndex : public Index {
 public:
  using Index::Index;

  Status Insert(const Value& key, RowId id) override {
    std::vector<RowId>& ids = entries_[key];
    ids.insert(std::upper_bound(ids.begin(), ids.end(), id), id);
    return Status::OK();
  }

  Status Erase(const Value& key, RowId id) override {
    auto it = entries_.find(key);
    if (it == entries_.end()) return Status::OK();
    std::vector<RowId>& ids = it->second;
    auto pos = std::lower_bound(ids.begin(), ids.end(), id);
    if (pos != ids.end() && *pos == id) ids.erase(pos);
    if (ids.empty()) entries_.erase(it);
    return Status::OK();
  }

  Result<std::vector<RowId>> LookupIds(const Value& key) const override {
    auto it = entries_.find(key);
    if (it == entries_.end()) return std::vector<RowId>{};
    return it->second;
  }

  size_t distinct_keys() const override { return entries_.size(); }

 private:
  std::map<Value, std::vector<RowId>, ValueLess> entries_;
};

/// In-memory row store: one slot per rowid, empty once tombstoned.
class MemoryRowStore : public RowStore {
 public:
  Status Insert(RowId id, Row row) override {
    if (id >= slots_.size()) slots_.resize(id + 1);
    slots_[id] = std::move(row);
    return Status::OK();
  }

  Result<Row> Update(RowId id, Row row) override {
    Row before = std::move(*slots_[id]);
    slots_[id] = std::move(row);
    return before;
  }

  Result<Row> Delete(RowId id) override {
    Row before = std::move(*slots_[id]);
    slots_[id].reset();
    return before;
  }

  Result<Row> Read(RowId id) const override { return *slots_[id]; }

  Status Scan(std::vector<Row>* rows,
              std::vector<RowId>* ids) const override {
    for (RowId id = 0; id < slots_.size(); ++id) {
      if (!slots_[id].has_value()) continue;
      rows->push_back(*slots_[id]);
      if (ids != nullptr) ids->push_back(id);
    }
    return Status::OK();
  }

  Status ScanSlots(
      const std::function<Status(RowId, bool)>& fn) const override {
    for (RowId id = 0; id < slots_.size(); ++id) {
      MSQL_RETURN_IF_ERROR(fn(id, slots_[id].has_value()));
    }
    return Status::OK();
  }

  Result<std::unique_ptr<Index>> BuildIndex(const std::string& index_name,
                                            const ColumnDef& /*column*/,
                                            size_t column_index) override {
    auto index = std::make_unique<MapIndex>(index_name, column_index);
    for (RowId id = 0; id < slots_.size(); ++id) {
      if (slots_[id].has_value()) {
        MSQL_RETURN_IF_ERROR(index->Insert((*slots_[id])[column_index], id));
      }
    }
    return std::unique_ptr<Index>(std::move(index));
  }

  Status DropIndex(const std::string& /*index_name*/) override {
    return Status::OK();
  }

 private:
  std::vector<std::optional<Row>> slots_;
};

}  // namespace

std::unique_ptr<RowStore> NewMemoryRowStore() {
  return std::make_unique<MemoryRowStore>();
}

Table::Table(TableSchema schema, std::unique_ptr<RowStore> store)
    : schema_(std::move(schema)), store_(std::move(store)) {}

Table::~Table() = default;

Result<std::unique_ptr<Table>> Table::Open(TableSchema schema,
                                           std::unique_ptr<RowStore> store) {
  std::unique_ptr<Table> table(new Table(std::move(schema), std::move(store)));
  Table& t = *table;
  MSQL_RETURN_IF_ERROR(
      t.store_->ScanSlots([&t](RowId id, bool live) -> Status {
        // Rowids without a live entry — tombstoned, or gaps left by
        // discarded transactions — are reusable.
        for (RowId gap = t.next_rowid_; gap < id; ++gap) {
          t.free_slots_.insert(gap);
        }
        if (live) {
          ++t.live_count_;
        } else {
          t.free_slots_.insert(id);
        }
        t.next_rowid_ = id + 1;
        return Status::OK();
      }));
  return table;
}

Result<Row> Table::Normalize(Row row) const {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " does not match table '" +
        schema_.table_name() + "' with " +
        std::to_string(schema_.num_columns()) + " columns");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const Type type = schema_.column(i).type;
    if (row[i].is_null() || row[i].type() == type) continue;  // no copy
    MSQL_ASSIGN_OR_RETURN(row[i], row[i].CoerceTo(type));
  }
  return row;
}

void Table::MarkLive(RowId id) {
  if (id == next_rowid_) {
    ++next_rowid_;
  } else {
    free_slots_.erase(id);
  }
  ++live_count_;
}

Result<Row> Table::ReadRow(RowId id) const {
  if (!IsLive(id)) {
    return Status::Internal("read of dead slot " + std::to_string(id));
  }
  return store_->Read(id);
}

Result<RowId> Table::Insert(Row row) {
  MSQL_ASSIGN_OR_RETURN(Row normalized, Normalize(std::move(row)));
  // Reuse the lowest tombstoned slot so slot_count() stays bounded by
  // the high-water mark of live rows, not by total inserts.
  RowId id = free_slots_.empty() ? next_rowid_ : *free_slots_.begin();
  IndexKeys keys = KeysOf(normalized);
  MSQL_RETURN_IF_ERROR(store_->Insert(id, std::move(normalized)));
  Status indexed = IndexInsert(keys, id);
  if (!indexed.ok()) {
    // Compensate the store write so the slot is not half-born; a paged
    // store logs the compensation like any other change.
    (void)store_->Delete(id);
    return indexed;
  }
  MarkLive(id);
  return id;
}

Status Table::ResurrectRow(RowId id, Row row) {
  if (id >= next_rowid_) {
    return Status::Internal("resurrect of unknown slot " + std::to_string(id));
  }
  if (IsLive(id)) {
    return Status::Internal("resurrect of live slot " + std::to_string(id));
  }
  IndexKeys keys = KeysOf(row);
  MSQL_RETURN_IF_ERROR(store_->Insert(id, std::move(row)));
  MarkLive(id);
  return IndexInsert(keys, id);
}

Result<Row> Table::Delete(RowId id) {
  if (!IsLive(id)) {
    return Status::Internal("delete of dead slot " + std::to_string(id));
  }
  MSQL_ASSIGN_OR_RETURN(Row old, store_->Delete(id));
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
  IndexKeys keys = KeysOf(normalized);
  MSQL_ASSIGN_OR_RETURN(Row old, store_->Update(id, std::move(normalized)));
  MSQL_RETURN_IF_ERROR(IndexErase(old, id));
  Status indexed = IndexInsert(keys, id);
  if (!indexed.ok()) {
    // Compensate as Insert does: the before-image and its keys go back,
    // so the failed statement leaves nothing for undo to repair; a
    // paged store logs the compensation like any other change.
    IndexKeys old_keys = KeysOf(old);
    (void)store_->Update(id, std::move(old));
    (void)IndexInsert(old_keys, id);
    return indexed;
  }
  return old;
}

Result<std::vector<Row>> Table::ScanRows(std::vector<RowId>* ids) const {
  std::vector<Row> rows;
  rows.reserve(live_count_);
  if (ids != nullptr) ids->reserve(ids->size() + live_count_);
  MSQL_RETURN_IF_ERROR(store_->Scan(&rows, ids));
  return rows;
}

Status Table::CreateIndex(std::string_view index_name,
                          std::string_view column) {
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
  MSQL_ASSIGN_OR_RETURN(
      std::unique_ptr<Index> index,
      store_->BuildIndex(key, schema_.column(*col), *col));
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
  MSQL_RETURN_IF_ERROR(store_->DropIndex(it->first));
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

Table::IndexKeys Table::KeysOf(const Row& row) const {
  IndexKeys keys;
  keys.reserve(indexes_.size());
  for (const auto& [name, index] : indexes_) {
    keys.emplace_back(index.get(), row[index->column_index()]);
  }
  return keys;
}

Status Table::IndexInsert(const IndexKeys& keys, RowId id) {
  for (size_t i = 0; i < keys.size(); ++i) {
    Status status = keys[i].first->Insert(keys[i].second, id);
    if (!status.ok()) {
      // Back out the entries already made so no index half-covers the
      // row (best effort; the transaction is about to abort anyway).
      for (size_t done = 0; done < i; ++done) {
        (void)keys[done].first->Erase(keys[done].second, id);
      }
      return status;
    }
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
