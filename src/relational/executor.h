#ifndef MSQL_RELATIONAL_EXECUTOR_H_
#define MSQL_RELATIONAL_EXECUTOR_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/database.h"
#include "relational/expr_eval.h"
#include "relational/planner.h"
#include "relational/result_set.h"
#include "relational/sql/ast.h"
#include "relational/txn.h"

namespace msql::relational {

/// Execution switches derived from the engine's capability profile.
struct ExecutorOptions {
  /// When true, DDL statements append undo records (Ingres-like DDL
  /// rollback); when false the caller is responsible for the Oracle-like
  /// "DDL commits prior work" dance before invoking the executor.
  bool record_ddl_undo = true;
  /// Fill ResultSet::plan_text with the plan's EXPLAIN rendering.
  bool collect_plan_text = false;
  /// Optional observability sinks (null = no instrumentation). The
  /// executor emits "sql.plan"/"sql.join" spans and join-strategy
  /// counters when these are enabled.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

/// The schema a CREATE TABLE statement declares, column types resolved
/// by name. Fails on an unknown type name or a duplicate column.
Result<TableSchema> SchemaOf(const CreateTableStmt& stmt);

/// Executes parsed SQL statements against one local database inside a
/// transaction. All data modifications append undo records to `txn`;
/// all table access goes through `locks` (shared for reads, exclusive
/// for writes) with the no-wait conflict policy.
///
/// Every SELECT runs through the local planner (relational/planner.h):
/// single-source conjuncts are pushed below the join, indexed
/// `col = literal` conjuncts become probes, and `a.x = b.y` conjuncts
/// drive build/probe hash joins in a greedy cardinality order. A WHERE
/// the planner cannot split runs as its cross-product plan. Either way
/// the joined rows are those of the odometer cross product filtered by
/// the WHERE, in the same order (tests/naive_join_oracle.h checks this).
///
/// UPDATE and DELETE pick their rows with the same one-source plan:
/// they modify exactly the rows `SELECT * FROM target WHERE ...` returns
/// (an indexed `col = literal` probes instead of scanning) and fail
/// exactly when it fails. Phase 1 collects those rows and, for UPDATE,
/// their new images on the pre-statement state; phase 2 applies them in
/// ascending rowid order. `rows_scanned`, `rows_evaluated` and the
/// plan text mean what they mean for that SELECT.
///
/// A scan reads each stored row in place and copies only the rows its
/// source's pushed filters keep. Per statement, the executor counts the
/// rows it copies out of a store (scan survivors and probed rows) and
/// its binding lookups, and adds both to the metrics registry once, as
/// `sql.rows_copied` and `sql.column_binds`.
///
/// An Executor runs one statement, and each scalar subquery of it runs
/// at most once: the first row that evaluates it computes its value,
/// every later row reuses that value. This is exact because subqueries
/// are uncorrelated and every statement reads pre-statement state
/// (DML collects its targets and new images before it writes, INSERT
/// evaluates every VALUES row before it inserts). A subquery no row
/// reaches never runs, and a failing one fails where it did before, as
/// errors are not kept.
class Executor {
 public:
  Executor(Database* db, Transaction* txn, LockManager* locks,
           ExecutorOptions options = {})
      : db_(db), txn_(txn), locks_(locks), options_(options) {}

  /// Dispatches on statement kind. Transaction-control verbs are not
  /// handled here (the engine owns the transaction lifecycle).
  Result<ResultSet> Execute(const Statement& stmt);

  Result<ResultSet> ExecuteSelect(const SelectStmt& stmt);
  Result<ResultSet> ExecuteInsert(const InsertStmt& stmt);
  Result<ResultSet> ExecuteUpdate(const UpdateStmt& stmt);
  Result<ResultSet> ExecuteDelete(const DeleteStmt& stmt);
  Result<ResultSet> ExecuteCreateTable(const CreateTableStmt& stmt);
  Result<ResultSet> ExecuteDropTable(const DropTableStmt& stmt);
  Result<ResultSet> ExecuteCreateView(const CreateViewStmt& stmt);
  Result<ResultSet> ExecuteDropView(const DropViewStmt& stmt);
  Result<ResultSet> ExecuteCreateIndex(const CreateIndexStmt& stmt);
  Result<ResultSet> ExecuteDropIndex(const DropIndexStmt& stmt);

  /// EXPLAIN: plans a SELECT, or the row selection of an UPDATE or
  /// DELETE, without running it, returning the plan's deterministic text
  /// rendering. Views are still materialized (their cardinality feeds
  /// the join-order estimates). Other statements are kInvalidArgument.
  Result<std::string> Explain(const Statement& stmt);

 private:
  /// Execute without the transaction check and the counter report.
  Result<ResultSet> Dispatch(const Statement& stmt);

  /// An evaluator over `binding` whose scalar subqueries go through the
  /// statement's memo and whose binding lookups the statement counts.
  ExprEvaluator Evaluator(const RowBinding* binding);

  /// One resolved FROM source: schema, effective name, and (for views)
  /// pre-materialized rows. Base-table rows are fetched later, once the
  /// plan has chosen an access path, together with their ids.
  struct ResolvedSource {
    std::string effective_name;
    TableSchema schema;
    std::vector<Row> rows;
    // Base tables: one per fetched row (a scan's only when asked for).
    std::vector<RowId> ids;
    const Table* table = nullptr;  // null for views
  };

  /// Locks and resolves every FROM source, materializing views
  /// (accumulating their recursive scan cost into `recursive_scanned`)
  /// and building the combined-row binding.
  Status ResolveSources(const SelectStmt& stmt,
                        std::vector<ResolvedSource>* sources,
                        RowBinding* binding, int64_t* recursive_scanned);

  /// The planner's view of the resolved sources (borrows their schemas).
  static std::vector<PlannerSource> PlannerSources(
      const std::vector<ResolvedSource>& sources);

  /// The planned SELECT pipeline: fetch per access path, filter pushed
  /// conjuncts per source (a scan filters each row before copying it),
  /// run the hash/nested-loop join steps, apply the final residual.
  /// Produces joined rows in FROM-major order; one source skips the
  /// joined rows and the order-restoring sort. With `ids` (a plan over one
  /// base table), also returns each row's id.
  Result<std::vector<Row>> RunPlannedJoin(const SelectPlan& plan,
                                          std::vector<ResolvedSource>* sources,
                                          const ExprEvaluator& evaluator,
                                          int64_t* rows_scanned,
                                          int64_t* rows_evaluated,
                                          std::vector<RowId>* ids = nullptr);

  /// The table an INSERT, UPDATE or DELETE names, after the qualifier
  /// and not-a-view checks, locked in `mode`.
  Result<Table*> LockTarget(const TableRef& ref, LockManager::Mode mode);

  /// Plans the row selection of an UPDATE or DELETE of `table`: the plan
  /// of `SELECT * FROM ref WHERE where`, over the one source it puts in
  /// `sources`.
  Result<SelectPlan> PlanTarget(const TableRef& ref, const Table* table,
                                const Expr* where,
                                std::vector<ResolvedSource>* sources);

  /// The rows of `table` an UPDATE or DELETE modifies, with their ids in
  /// ascending order: those the target plan fetches and keeps. Fills
  /// `out`'s rows_scanned, rows_evaluated and plan text.
  Status MatchTargets(const TableRef& ref, const Table* table,
                      const Expr* where, std::vector<RowId>* ids,
                      std::vector<Row>* rows, ResultSet* out);

  /// Evaluates a scalar subquery: one column, at most one row; zero rows
  /// yield SQL NULL. Memoized per statement (see the class comment).
  Result<Value> EvalScalarSubquery(const SelectStmt& stmt);

  /// Rejects DML whose target names a view.
  Status RejectViewTarget(const TableRef& ref) const;

  /// Checks an optional db qualifier against the executor's database.
  Status CheckQualifier(const TableRef& ref) const;

  Database* db_;
  Transaction* txn_;
  LockManager* locks_;
  ExecutorOptions options_;
  /// Values of the scalar subqueries evaluated so far, keyed by the
  /// subquery's node in the statement (or in a view definition).
  std::unordered_map<const SelectStmt*, Value> subquery_values_;
  /// Work of the statement so far, reported by Execute.
  int64_t rows_copied_ = 0;
  int64_t column_binds_ = 0;
};

}  // namespace msql::relational

#endif  // MSQL_RELATIONAL_EXECUTOR_H_
