// Test-only semantics oracle for the join stage of a local SELECT: the
// odometer cross product of the FROM sources in FROM order, with the
// whole WHERE evaluated once per combined row (left to right, with
// short-circuit AND/OR), stopping at the first error.
//
// Planned `SELECT * FROM ... WHERE ...` must return exactly these rows
// in exactly this order (the planner restores FROM-major order), or the
// same first-error Status. Projection, aggregation, DISTINCT and ORDER
// BY run after the join and have a single implementation, so the
// oracle stops at the join.
//
// Built only from public APIs: base tables are scanned through
// Database/Table, expressions go through RowBinding/ExprEvaluator, and
// the engine itself materializes views and evaluates scalar subqueries.
#ifndef MSQL_TESTS_NAIVE_JOIN_ORACLE_H_
#define MSQL_TESTS_NAIVE_JOIN_ORACLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/string_util.h"
#include "relational/engine.h"
#include "relational/expr_eval.h"
#include "relational/sql/parser.h"

namespace msql::relational {

struct OracleJoin {
  /// WHERE survivors at full combined width, in odometer order.
  std::vector<Row> rows;
  /// Source rows fetched (every base table is scanned in full), plus the
  /// base-table scans behind materialized views.
  int64_t rows_scanned = 0;
  /// Combined rows the WHERE was evaluated on.
  int64_t rows_evaluated = 0;
};

/// A scalar subquery's value, from running it as a statement of its own
/// on `session`: one column, at most one row, NULL for none. The oracle
/// calls it on every row that reaches the subquery.
inline Result<Value> NaiveScalarSubquery(LocalEngine* engine,
                                         SessionId session,
                                         const SelectStmt& sub) {
  MSQL_ASSIGN_OR_RETURN(ResultSet rs, engine->ExecuteStatement(session, sub));
  if (rs.columns.size() != 1) {
    return Status::ExecutionError(
        "scalar subquery must produce exactly one column, got " +
        std::to_string(rs.columns.size()));
  }
  if (rs.rows.empty()) return Value::Null_();
  if (rs.rows.size() > 1) {
    return Status::ExecutionError("scalar subquery produced more than one row");
  }
  return rs.rows[0][0];
}

/// Runs the join stage of `stmt` against database `db_name` of `engine`.
/// `session` (connected to that database) runs view definitions and
/// scalar subqueries.
inline Result<OracleJoin> NaiveJoin(LocalEngine* engine, SessionId session,
                                    std::string_view db_name,
                                    const SelectStmt& stmt) {
  MSQL_ASSIGN_OR_RETURN(const Database* db, engine->GetDatabaseConst(db_name));
  OracleJoin out;
  RowBinding binding;
  std::vector<std::vector<Row>> parts;
  for (const TableRef& ref : stmt.from) {
    if (db->HasView(ref.table)) {
      MSQL_ASSIGN_OR_RETURN(TableSchema schema,
                            engine->DescribeView(db_name, ref.table));
      MSQL_ASSIGN_OR_RETURN(const SelectStmt* definition,
                            db->GetView(ref.table));
      MSQL_ASSIGN_OR_RETURN(ResultSet view,
                            engine->ExecuteStatement(session, *definition));
      out.rows_scanned += view.rows_scanned;
      binding.AddTable(ToLower(ref.EffectiveName()), schema);
      parts.push_back(std::move(view.rows));
    } else {
      MSQL_ASSIGN_OR_RETURN(const Table* table, db->GetTableConst(ref.table));
      binding.AddTable(ToLower(ref.EffectiveName()), table->schema());
      MSQL_ASSIGN_OR_RETURN(std::vector<Row> rows, table->ScanRows());
      parts.push_back(std::move(rows));
    }
    out.rows_scanned += static_cast<int64_t>(parts.back().size());
  }

  ExprEvaluator evaluator(
      &binding, [&](const SelectStmt& sub) -> Result<Value> {
        return NaiveScalarSubquery(engine, session, sub);
      });

  for (const auto& part : parts) {
    if (part.empty()) return out;  // empty cross product: WHERE never runs
  }
  std::vector<size_t> idx(parts.size(), 0);
  while (true) {
    Row combined;
    for (size_t i = 0; i < parts.size(); ++i) {
      combined.insert(combined.end(), parts[i][idx[i]].begin(),
                      parts[i][idx[i]].end());
    }
    ++out.rows_evaluated;
    bool keep = true;
    if (stmt.where != nullptr) {
      MSQL_ASSIGN_OR_RETURN(keep,
                            evaluator.EvalPredicate(*stmt.where, combined));
    }
    if (keep) out.rows.push_back(std::move(combined));
    // Advance the odometer; the last source turns fastest.
    size_t level = parts.size();
    while (level > 0) {
      --level;
      if (++idx[level] < parts[level].size()) break;
      idx[level] = 0;
      if (level == 0) return out;
    }
  }
}

/// Parses `sql` (a SELECT) and runs NaiveJoin on it.
inline Result<OracleJoin> NaiveJoinSql(LocalEngine* engine, SessionId session,
                                       std::string_view db_name,
                                       std::string_view sql) {
  MSQL_ASSIGN_OR_RETURN(StatementPtr stmt, ParseSql(sql));
  if (stmt->kind() != StatementKind::kSelect) {
    return Status::InvalidArgument("oracle requires a SELECT");
  }
  return NaiveJoin(engine, session, db_name,
                   static_cast<const SelectStmt&>(*stmt));
}

}  // namespace msql::relational

#endif  // MSQL_TESTS_NAIVE_JOIN_ORACLE_H_
