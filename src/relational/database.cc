#include "relational/database.h"

#include "common/string_util.h"
#include "relational/storage_engine.h"

namespace msql::relational {

Database::Database(std::string name) : name_(ToLower(name)) {}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

bool Database::HasTable(std::string_view table) const {
  return tables_.count(ToLower(table)) > 0;
}

Result<Table*> Database::GetTable(std::string_view table) {
  auto it = tables_.find(ToLower(table));
  if (it == tables_.end()) {
    return Status::NotFound("table '" + std::string(table) +
                            "' does not exist in database '" + name_ + "'");
  }
  return it->second.get();
}

Result<const Table*> Database::GetTableConst(std::string_view table) const {
  auto it = tables_.find(ToLower(table));
  if (it == tables_.end()) {
    return Status::NotFound("table '" + std::string(table) +
                            "' does not exist in database '" + name_ + "'");
  }
  return static_cast<const Table*>(it->second.get());
}

Status Database::CreateTable(TableSchema schema) {
  std::string name = schema.table_name();
  if (tables_.count(name) > 0 || views_.count(name) > 0) {
    return Status::AlreadyExists("'" + name +
                                 "' already names a table or view in "
                                 "database '" + name_ + "'");
  }
  std::unique_ptr<RowStore> store;
  if (storage_mgr_ != nullptr) {
    MSQL_ASSIGN_OR_RETURN(store,
                          storage_mgr_->CreateTableStorage(name_, schema));
  } else {
    store = NewMemoryRowStore();
  }
  MSQL_ASSIGN_OR_RETURN(std::unique_ptr<Table> table,
                        Table::Open(std::move(schema), std::move(store)));
  tables_.emplace(std::move(name), std::move(table));
  return Status::OK();
}

Result<std::unique_ptr<Table>> Database::DropTable(std::string_view table) {
  auto it = tables_.find(ToLower(table));
  if (it == tables_.end()) {
    return Status::NotFound("table '" + std::string(table) +
                            "' does not exist in database '" + name_ + "'");
  }
  if (storage_mgr_ != nullptr) {
    MSQL_RETURN_IF_ERROR(storage_mgr_->OnDropTable(name_, it->first));
  }
  std::unique_ptr<Table> owned = std::move(it->second);
  tables_.erase(it);
  return owned;
}

Status Database::RestoreTable(std::unique_ptr<Table> table) {
  std::string name = table->schema().table_name();
  if (tables_.count(name) > 0) {
    return Status::Internal("restore of existing table '" + name + "'");
  }
  tables_.emplace(std::move(name), std::move(table));
  return Status::OK();
}

bool Database::HasView(std::string_view view) const {
  return views_.count(ToLower(view)) > 0;
}

std::vector<std::string> Database::ViewNames() const {
  std::vector<std::string> names;
  names.reserve(views_.size());
  for (const auto& [name, def] : views_) names.push_back(name);
  return names;
}

Status Database::CreateView(std::string_view view,
                            std::unique_ptr<SelectStmt> definition) {
  std::string key = ToLower(view);
  if (tables_.count(key) > 0 || views_.count(key) > 0) {
    return Status::AlreadyExists("'" + key +
                                 "' already names a table or view in '" +
                                 name_ + "'");
  }
  if (storage_mgr_ != nullptr) {
    // Views have no pages — the WAL record alone re-creates them.
    MSQL_RETURN_IF_ERROR(
        storage_mgr_->OnCreateView(name_, key, definition->ToSql()));
  }
  views_.emplace(std::move(key), std::move(definition));
  return Status::OK();
}

Result<std::unique_ptr<SelectStmt>> Database::DropView(
    std::string_view view) {
  auto it = views_.find(ToLower(view));
  if (it == views_.end()) {
    return Status::NotFound("view '" + std::string(view) +
                            "' does not exist in database '" + name_ + "'");
  }
  std::unique_ptr<SelectStmt> owned = std::move(it->second);
  views_.erase(it);
  if (storage_mgr_ != nullptr) {
    MSQL_RETURN_IF_ERROR(storage_mgr_->OnDropView(name_, ToLower(view)));
  }
  return owned;
}

Result<const SelectStmt*> Database::GetView(std::string_view view) const {
  auto it = views_.find(ToLower(view));
  if (it == views_.end()) {
    return Status::NotFound("view '" + std::string(view) +
                            "' does not exist in database '" + name_ + "'");
  }
  return static_cast<const SelectStmt*>(it->second.get());
}

}  // namespace msql::relational
