#ifndef MSQL_RELATIONAL_EXPR_EVAL_H_
#define MSQL_RELATIONAL_EXPR_EVAL_H_

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "relational/sql/ast.h"
#include "relational/table.h"

namespace msql::relational {

/// Name→position binding for expression evaluation over a (possibly
/// joined) row. Each entry maps an effective table name (alias if given)
/// and a column name to an index in the combined row.
class RowBinding {
 public:
  /// Appends all columns of `schema` under the effective table name
  /// `table_name` (already lower-cased by the caller).
  void AddTable(const std::string& table_name, const TableSchema& schema);

  /// Resolves `qualifier.name` (qualifier may be empty) to a row index.
  /// Unqualified names matching columns of several tables are ambiguous.
  Result<size_t> Resolve(std::string_view qualifier,
                         std::string_view name) const;

  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::string table;
    std::string column;
  };
  std::vector<Entry> entries_;
};

/// kExecutionError "integer overflow": an INTEGER result of arithmetic,
/// unary minus, ABS or SUM that leaves the 64-bit range.
Status IntegerOverflow();

/// Evaluates SQL expressions against bound rows.
///
/// Aggregate FunctionCall nodes are *not* computed here — the executor
/// precomputes them per group and supplies their values keyed by node
/// address via `aggregate_values`. A callback evaluates scalar
/// subqueries (the executor closes over the database and transaction).
class ExprEvaluator {
 public:
  using SubqueryFn = std::function<Result<Value>(const SelectStmt&)>;

  ExprEvaluator(const RowBinding* binding, SubqueryFn subquery_fn)
      : binding_(binding), subquery_fn_(std::move(subquery_fn)) {}

  /// Supplies precomputed aggregate values (per current group).
  void set_aggregate_values(const std::map<const Expr*, Value>* values) {
    aggregate_values_ = values;
  }

  /// Evaluates `e` against `row`.
  Result<Value> Eval(const Expr& e, const Row& row) const;

  /// Evaluates `e` and collapses three-valued logic at a filter point:
  /// returns true iff the result is boolean TRUE (NULL and FALSE filter
  /// the row out, as SQL prescribes).
  Result<bool> EvalPredicate(const Expr& e, const Row& row) const;

  /// SQL LIKE with '%' (any run) and '_' (any single char), matching
  /// case-sensitively as standard SQL does.
  static bool LikeMatch(std::string_view pattern, std::string_view text);

 private:
  Result<Value> EvalUnary(const UnaryExpr& e, const Row& row) const;
  Result<Value> EvalBinary(const BinaryExpr& e, const Row& row) const;
  Result<Value> EvalFunction(const FunctionCallExpr& e,
                             const Row& row) const;
  Result<Value> EvalComparison(BinaryOp op, const Value& left,
                               const Value& right) const;
  Result<Value> EvalArithmetic(BinaryOp op, const Value& left,
                               const Value& right) const;

  const RowBinding* binding_;
  SubqueryFn subquery_fn_;
  const std::map<const Expr*, Value>* aggregate_values_ = nullptr;
};

/// Collects pointers to all aggregate FunctionCall nodes in `e`, outside
/// scalar subqueries.
void CollectAggregates(const Expr& e, std::vector<const FunctionCallExpr*>* out);

}  // namespace msql::relational

#endif  // MSQL_RELATIONAL_EXPR_EVAL_H_
