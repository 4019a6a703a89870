#include "mdbs/global_data_dictionary.h"

#include <algorithm>

#include "common/string_util.h"

namespace msql::mdbs {

Status GlobalDataDictionary::RegisterDatabase(std::string_view database,
                                              std::string_view service) {
  std::string db_key = ToLower(database);
  std::string service_key = ToLower(service);
  auto it = databases_.find(db_key);
  if (it != databases_.end()) {
    if (it->second.service != service_key) {
      return Status::AlreadyExists(
          "database '" + db_key + "' is already registered from service '" +
          it->second.service + "' (names must be unique in the federation)");
    }
    return Status::OK();
  }
  GddDatabase db;
  db.name = db_key;
  db.service = service_key;
  databases_.emplace(db_key, std::move(db));
  return Status::OK();
}

bool GlobalDataDictionary::HasDatabase(std::string_view database) const {
  return databases_.count(ToLower(database)) > 0;
}

Result<const GddDatabase*> GlobalDataDictionary::GetDatabase(
    std::string_view database) const {
  auto it = databases_.find(ToLower(database));
  if (it == databases_.end()) {
    return Status::NotFound("database '" + std::string(database) +
                            "' is not in the GDD");
  }
  return &it->second;
}

std::vector<std::string> GlobalDataDictionary::DatabaseNames() const {
  std::vector<std::string> out;
  out.reserve(databases_.size());
  for (const auto& [name, db] : databases_) out.push_back(name);
  return out;
}

Status GlobalDataDictionary::PutTable(std::string_view database,
                                      relational::TableSchema schema) {
  auto it = databases_.find(ToLower(database));
  if (it == databases_.end()) {
    return Status::NotFound("database '" + std::string(database) +
                            "' is not in the GDD");
  }
  std::string table_name = schema.table_name();
  it->second.tables[table_name] = std::move(schema);
  // A (re-)IMPORT may change the column list, so any existing ANALYZE
  // snapshot is now stale. Bumping the generation (rather than erasing
  // the stats) keeps the staleness observable and testable.
  ++it->second.schema_generations[table_name];
  return Status::OK();
}

Status GlobalDataDictionary::RemoveTable(std::string_view database,
                                         std::string_view table) {
  auto it = databases_.find(ToLower(database));
  if (it == databases_.end()) {
    return Status::NotFound("database '" + std::string(database) +
                            "' is not in the GDD");
  }
  std::string table_key = ToLower(table);
  if (it->second.tables.erase(table_key) == 0) {
    return Status::NotFound("table '" + std::string(table) +
                            "' is not in the GDD for '" + it->second.name +
                            "'");
  }
  it->second.stats.erase(table_key);
  it->second.schema_generations.erase(table_key);
  return Status::OK();
}

bool GlobalDataDictionary::HasTable(std::string_view database,
                                    std::string_view table) const {
  auto it = databases_.find(ToLower(database));
  return it != databases_.end() &&
         it->second.tables.count(ToLower(table)) > 0;
}

Result<const relational::TableSchema*> GlobalDataDictionary::GetTable(
    std::string_view database, std::string_view table) const {
  auto it = databases_.find(ToLower(database));
  if (it == databases_.end()) {
    return Status::NotFound("database '" + std::string(database) +
                            "' is not in the GDD");
  }
  auto table_it = it->second.tables.find(ToLower(table));
  if (table_it == it->second.tables.end()) {
    return Status::NotFound("table '" + std::string(table) +
                            "' is not in the GDD for '" + it->second.name +
                            "'");
  }
  return &table_it->second;
}

Status GlobalDataDictionary::PutTableStats(std::string_view database,
                                           std::string_view table,
                                           TableStats stats) {
  auto it = databases_.find(ToLower(database));
  if (it == databases_.end()) {
    return Status::NotFound("database '" + std::string(database) +
                            "' is not in the GDD");
  }
  std::string table_key = ToLower(table);
  if (it->second.tables.count(table_key) == 0) {
    return Status::NotFound("table '" + std::string(table) +
                            "' is not in the GDD for '" + it->second.name +
                            "' (IMPORT it before ANALYZE)");
  }
  auto stats_it = it->second.stats.find(table_key);
  stats.version =
      stats_it == it->second.stats.end() ? 1 : stats_it->second.version + 1;
  stats.schema_generation = it->second.schema_generations[table_key];
  it->second.stats[table_key] = std::move(stats);
  // A fresh snapshot supersedes whatever churn preceded it.
  it->second.write_churn[table_key] = 0;
  return Status::OK();
}

void GlobalDataDictionary::RecordWriteChurn(std::string_view database,
                                            std::string_view table,
                                            int64_t rows) {
  if (rows <= 0) return;
  auto it = databases_.find(ToLower(database));
  if (it == databases_.end()) return;
  std::string table_key = ToLower(table);
  if (it->second.tables.count(table_key) == 0) return;
  it->second.write_churn[table_key] += rows;
}

int64_t GlobalDataDictionary::WriteChurn(std::string_view database,
                                         std::string_view table) const {
  auto it = databases_.find(ToLower(database));
  if (it == databases_.end()) return 0;
  auto churn_it = it->second.write_churn.find(ToLower(table));
  return churn_it == it->second.write_churn.end() ? 0 : churn_it->second;
}

Result<const TableStats*> GlobalDataDictionary::GetTableStats(
    std::string_view database, std::string_view table) const {
  auto it = databases_.find(ToLower(database));
  if (it == databases_.end()) {
    return Status::NotFound("database '" + std::string(database) +
                            "' is not in the GDD");
  }
  auto stats_it = it->second.stats.find(ToLower(table));
  if (stats_it == it->second.stats.end()) {
    return Status::NotFound("no statistics for '" + it->second.name + "." +
                            std::string(table) + "' (run ANALYZE)");
  }
  return &stats_it->second;
}

bool GlobalDataDictionary::TableStatsFresh(std::string_view database,
                                           std::string_view table) const {
  auto it = databases_.find(ToLower(database));
  if (it == databases_.end()) return false;
  std::string table_key = ToLower(table);
  auto stats_it = it->second.stats.find(table_key);
  if (stats_it == it->second.stats.end()) return false;
  auto gen_it = it->second.schema_generations.find(table_key);
  uint64_t current = gen_it == it->second.schema_generations.end()
                         ? 0
                         : gen_it->second;
  if (stats_it->second.schema_generation != current) return false;
  // Data churn: past the threshold the snapshot's row counts are
  // fiction, so the per-query heuristic fallback must re-engage.
  auto churn_it = it->second.write_churn.find(table_key);
  int64_t churn = churn_it == it->second.write_churn.end()
                      ? 0
                      : churn_it->second;
  double allowed = std::max(
      static_cast<double>(churn_floor_rows_),
      churn_fraction_ * static_cast<double>(stats_it->second.row_count));
  return static_cast<double>(churn) <= allowed;
}

Result<std::vector<std::string>> GlobalDataDictionary::MatchTables(
    std::string_view database, std::string_view pattern) const {
  MSQL_ASSIGN_OR_RETURN(const GddDatabase* db, GetDatabase(database));
  std::vector<std::string> out;
  for (const auto& [name, schema] : db->tables) {
    if (WildcardMatch(pattern, name)) out.push_back(name);
  }
  return out;
}

Result<std::vector<std::string>> GlobalDataDictionary::MatchColumns(
    std::string_view database, std::string_view table,
    std::string_view pattern) const {
  MSQL_ASSIGN_OR_RETURN(const relational::TableSchema* schema,
                        GetTable(database, table));
  return schema->MatchColumns(pattern);
}

Status GlobalDataDictionary::CreateMultidatabase(
    std::string_view name, std::vector<std::string> members) {
  std::string key = ToLower(name);
  if (databases_.count(key) > 0) {
    return Status::AlreadyExists("'" + key +
                                 "' already names a database");
  }
  if (multidatabases_.count(key) > 0) {
    return Status::AlreadyExists("multidatabase '" + key +
                                 "' already exists");
  }
  if (members.empty()) {
    return Status::InvalidArgument("multidatabase '" + key +
                                   "' has no member databases");
  }
  std::vector<std::string> canonical;
  for (auto& member : members) {
    std::string member_key = ToLower(member);
    if (databases_.count(member_key) == 0) {
      return Status::NotFound("multidatabase member '" + member_key +
                              "' is not in the GDD (IMPORT it first)");
    }
    canonical.push_back(std::move(member_key));
  }
  multidatabases_.emplace(std::move(key), std::move(canonical));
  return Status::OK();
}

Status GlobalDataDictionary::DropMultidatabase(std::string_view name) {
  if (multidatabases_.erase(ToLower(name)) == 0) {
    return Status::NotFound("multidatabase '" + std::string(name) +
                            "' does not exist");
  }
  return Status::OK();
}

bool GlobalDataDictionary::HasMultidatabase(std::string_view name) const {
  return multidatabases_.count(ToLower(name)) > 0;
}

Result<const std::vector<std::string>*>
GlobalDataDictionary::GetMultidatabase(std::string_view name) const {
  auto it = multidatabases_.find(ToLower(name));
  if (it == multidatabases_.end()) {
    return Status::NotFound("multidatabase '" + std::string(name) +
                            "' does not exist");
  }
  return &it->second;
}

size_t GlobalDataDictionary::TotalTableCount() const {
  size_t count = 0;
  for (const auto& [name, db] : databases_) count += db.tables.size();
  return count;
}

std::string GlobalDataDictionary::ToString() const {
  std::string out;
  for (const auto& [db_name, db] : databases_) {
    out += db_name + " (service " + db.service + ")\n";
    for (const auto& [table_name, schema] : db.tables) {
      out += "  " + schema.ToString() + "\n";
    }
  }
  return out;
}

}  // namespace msql::mdbs
