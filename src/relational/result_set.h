#ifndef MSQL_RELATIONAL_RESULT_SET_H_
#define MSQL_RELATIONAL_RESULT_SET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "relational/table.h"

namespace msql::relational {

/// Result of one SQL statement against one local database.
///
/// A SELECT fills `columns` and `rows`; DML fills `rows_affected`. This
/// is also the unit shipped from a LAM back to the DOL engine, and the
/// element type of an MSQL *multitable* (one ResultSet per contributing
/// database).
struct ResultSet {
  /// Column headers of a SELECT result (empty for DML/DDL).
  std::vector<std::string> columns;
  /// Result tuples, positionally aligned with `columns`.
  std::vector<Row> rows;
  /// Rows touched by INSERT/UPDATE/DELETE.
  int64_t rows_affected = 0;
  /// Rows the executor had to examine to produce this result (scan cost;
  /// diagnostics only — excluded from equality). Includes base-table
  /// rows scanned while materializing view sources.
  int64_t rows_scanned = 0;
  /// Row candidates the executor formed and tested: per-source filter
  /// evaluations plus join candidate pairs (rows formed by steps after
  /// the first). Final-filter evaluations on fully joined rows are not
  /// counted. Diagnostics only — excluded from equality and wire
  /// accounting.
  int64_t rows_evaluated = 0;
  /// Physical-plan rendering of the SELECT that produced this result.
  /// Filled only when the engine collects plans (`\plan`); excluded from
  /// equality and wire accounting.
  std::string plan_text;

  bool IsQueryResult() const { return !columns.empty(); }

  /// Fixed-width ASCII table rendering (used by examples and EXPERIMENTS
  /// transcripts).
  std::string ToString() const;

  /// Sorts rows lexicographically by Value::Compare, making result
  /// comparison deterministic in tests.
  void SortRows();

  bool operator==(const ResultSet& other) const;
};

}  // namespace msql::relational

#endif  // MSQL_RELATIONAL_RESULT_SET_H_
