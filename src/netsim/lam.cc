#include "netsim/lam.h"

#include <set>
#include <utility>

#include "common/string_util.h"

namespace msql::netsim {

using relational::ResultSet;
using relational::TxnState;

namespace {
// Local service-time model of a LAM: a fixed cost of dispatching any
// request, a per-row cost of executing/serializing results, and a
// per-row cost of scanning (the access-path cost an index avoids).
constexpr int64_t kRequestOverheadMicros = 200;
constexpr int64_t kMicrosPerRow = 10;
constexpr int64_t kMicrosPerRowScanned = 2;

/// The answer of DESCRIBE and DESCRIBEVIEW: a (table_name, column_name,
/// type_name, width) header, then one row per column of each named
/// schema.
ResultSet DescribeAnswer(
    const std::vector<std::pair<std::string, const relational::TableSchema*>>&
        schemas) {
  ResultSet answer;
  answer.columns = {"table_name", "column_name", "type_name", "width"};
  for (const auto& [name, schema] : schemas) {
    for (const auto& col : schema->columns()) {
      answer.rows.push_back(relational::Row{
          relational::Value::Text(name), relational::Value::Text(col.name),
          relational::Value::Text(std::string(TypeName(col.type))),
          relational::Value::Integer(col.width)});
    }
  }
  return answer;
}
}  // namespace

std::string_view LamRequestTypeName(LamRequestType type) {
  switch (type) {
    case LamRequestType::kPing: return "PING";
    case LamRequestType::kOpenSession: return "OPEN";
    case LamRequestType::kCloseSession: return "CLOSE";
    case LamRequestType::kExecute: return "EXEC";
    case LamRequestType::kBegin: return "BEGIN";
    case LamRequestType::kPrepare: return "PREPARE";
    case LamRequestType::kCommit: return "COMMIT";
    case LamRequestType::kRollback: return "ROLLBACK";
    case LamRequestType::kQueryTxnState: return "STATUS";
    case LamRequestType::kDescribe: return "DESCRIBE";
    case LamRequestType::kDescribeView: return "DESCRIBEVIEW";
    case LamRequestType::kAnalyze: return "ANALYZE";
  }
  return "UNKNOWN";
}

int64_t LamRequest::WireBytes() const {
  size_t text = sql.size();
  if (insert != nullptr && insert->typed_rows != nullptr) {
    // "INSERT INTO " table [" (" c ", " c ")"] " VALUES " then the rows
    // joined by ", ", each "(" v ", " v ")" with v its SQL literal.
    text += 12 + insert->table.ToSql().size() + 8;
    if (!insert->columns.empty()) {
      text += 3 + 2 * (insert->columns.size() - 1);
      for (const std::string& c : insert->columns) text += c.size();
    }
    const auto& rows = *insert->typed_rows;
    for (size_t r = 0; r < rows.size(); ++r) {
      text += (r > 0 ? 2 : 0) + 2;
      for (size_t i = 0; i < rows[r].size(); ++i) {
        text += (i > 0 ? 2 : 0) + relational::LiteralWidth(rows[r][i]);
      }
    }
  }
  return 32 + static_cast<int64_t>(database.size() + text);
}

int64_t LamResponse::WireBytes() const {
  int64_t bytes = 64 + static_cast<int64_t>(status.message().size());
  bytes += 8 * static_cast<int64_t>(blocked_by.size());
  for (const auto& col : result.columns) {
    bytes += static_cast<int64_t>(col.size()) + 4;
  }
  for (const auto& row : result.rows) {
    for (const auto& v : row) {
      bytes += static_cast<int64_t>(relational::DisplayWidth(v)) + 4;
    }
  }
  return bytes;
}

Lam::Lam(std::string service_name, std::string site_name,
         std::unique_ptr<relational::LocalEngine> engine)
    : service_name_(ToLower(service_name)),
      site_name_(ToLower(site_name)),
      engine_(std::move(engine)) {}

LamResponse Lam::Handle(const LamRequest& request, int64_t* service_micros) {
  LamResponse response;
  int64_t rows_touched = 0;
  int64_t rows_scanned = 0;
  switch (request.type) {
    case LamRequestType::kPing:
      break;
    case LamRequestType::kOpenSession: {
      auto session = engine_->OpenSession(request.database);
      if (session.ok()) {
        response.session = *session;
      } else {
        response.status = session.status();
      }
      break;
    }
    case LamRequestType::kCloseSession:
      response.status = engine_->CloseSession(request.session);
      break;
    case LamRequestType::kExecute: {
      auto result =
          request.insert != nullptr
              ? engine_->ExecuteStatement(request.session, *request.insert)
              : engine_->Execute(request.session, request.sql);
      if (result.ok()) {
        rows_touched = result->IsQueryResult()
                           ? static_cast<int64_t>(result->rows.size())
                           : result->rows_affected;
        rows_scanned = result->rows_scanned;
        response.result = std::move(*result);
      } else {
        response.status = result.status();
        if (result.status().code() == StatusCode::kBusy) {
          response.blocked_by = engine_->BlockingSessions();
        }
      }
      break;
    }
    case LamRequestType::kBegin:
      response.status = engine_->Begin(request.session);
      break;
    case LamRequestType::kPrepare:
      response.status = engine_->Prepare(request.session);
      break;
    case LamRequestType::kCommit:
      response.status = engine_->Commit(request.session);
      break;
    case LamRequestType::kRollback:
      response.status = engine_->Rollback(request.session);
      break;
    case LamRequestType::kQueryTxnState: {
      auto state = engine_->GetTxnState(request.session);
      if (state.ok()) {
        response.txn_state = *state;
      } else {
        response.status = state.status();
      }
      break;
    }
    case LamRequestType::kDescribe: {
      auto db = engine_->GetDatabaseConst(request.database);
      if (!db.ok()) {
        response.status = db.status();
        break;
      }
      std::vector<std::string> tables;
      if (request.sql.empty()) {
        tables = (*db)->TableNames();
      } else {
        tables.push_back(ToLower(request.sql));
      }
      std::vector<std::pair<std::string, const relational::TableSchema*>>
          schemas;
      for (const auto& table_name : tables) {
        auto table = (*db)->GetTableConst(table_name);
        if (!table.ok()) {
          response.status = table.status();
          break;
        }
        schemas.emplace_back(table_name, &(*table)->schema());
      }
      response.result = DescribeAnswer(schemas);
      rows_touched = static_cast<int64_t>(response.result.rows.size());
      break;
    }
    case LamRequestType::kDescribeView: {
      if (request.sql.empty()) {
        response.status =
            Status::InvalidArgument("DESCRIBEVIEW requires a view name");
        break;
      }
      auto schema = engine_->DescribeView(request.database, request.sql);
      if (!schema.ok()) {
        response.status = schema.status();
        break;
      }
      response.result = DescribeAnswer({{schema->table_name(), &*schema}});
      rows_touched = static_cast<int64_t>(response.result.rows.size());
      break;
    }
    case LamRequestType::kAnalyze: {
      auto db = engine_->GetDatabaseConst(request.database);
      if (!db.ok()) {
        response.status = db.status();
        break;
      }
      response.result.columns = {"table_name",  "column_name",
                                 "row_count",   "distinct_values",
                                 "min_value",   "max_value",
                                 "avg_width_bytes"};
      std::vector<std::string> tables;
      if (request.sql.empty()) {
        tables = (*db)->TableNames();
      } else {
        tables.push_back(ToLower(request.sql));
      }
      for (const auto& table_name : tables) {
        auto table = (*db)->GetTableConst(table_name);
        if (!table.ok()) {
          response.status = table.status();
          break;
        }
        const relational::TableSchema& schema = (*table)->schema();
        auto scanned = (*table)->ScanRows();
        if (!scanned.ok()) {
          response.status = scanned.status();
          break;
        }
        const std::vector<relational::Row> rows = std::move(*scanned);
        rows_scanned += static_cast<int64_t>(rows.size());
        for (size_t c = 0; c < schema.columns().size(); ++c) {
          std::set<std::string> distinct;
          const relational::Value* min_v = nullptr;
          const relational::Value* max_v = nullptr;
          int64_t width_sum = 0;
          for (const relational::Row& row : rows) {
            const relational::Value& v = row[c];
            width_sum += static_cast<int64_t>(relational::DisplayWidth(v)) + 4;
            if (v.is_null()) continue;
            distinct.insert(v.ToSqlLiteral());
            if (min_v == nullptr || v.Compare(*min_v) < 0) min_v = &v;
            if (max_v == nullptr || v.Compare(*max_v) > 0) max_v = &v;
          }
          const double avg_width =
              rows.empty() ? 0.0
                           : static_cast<double>(width_sum) /
                                 static_cast<double>(rows.size());
          response.result.rows.push_back(relational::Row{
              relational::Value::Text(table_name),
              relational::Value::Text(schema.columns()[c].name),
              relational::Value::Integer(
                  static_cast<int64_t>(rows.size())),
              relational::Value::Integer(
                  static_cast<int64_t>(distinct.size())),
              relational::Value::Text(
                  min_v == nullptr ? "" : min_v->ToDisplayString()),
              relational::Value::Text(
                  max_v == nullptr ? "" : max_v->ToDisplayString()),
              relational::Value::Real(avg_width)});
        }
      }
      rows_touched = static_cast<int64_t>(response.result.rows.size());
      break;
    }
  }
  // Whatever the outcome, report the transaction state when a session is
  // named — the DOL engine's IF conditions read it from every response.
  if (request.session != 0) {
    auto state = engine_->GetTxnState(request.session);
    if (state.ok()) response.txn_state = *state;
  }
  if (service_micros != nullptr) {
    *service_micros = kRequestOverheadMicros + rows_touched * kMicrosPerRow +
                      rows_scanned * kMicrosPerRowScanned;
  }
  return response;
}

}  // namespace msql::netsim
