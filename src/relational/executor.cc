#include "relational/executor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <unordered_map>

#include "common/string_util.h"
#include "relational/index.h"
#include "relational/schema_infer.h"

namespace msql::relational {

namespace {

/// One column of the select list after '*' expansion.
struct OutputItem {
  const Expr* expr;
  std::string name;
};

/// Group key / distinct key: rows compared by strict Value equality.
struct RowKeyLess {
  bool operator()(const Row& a, const Row& b) const {
    size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  }
};

/// Aggregate accumulator for one aggregate call in one group.
class AggAccumulator {
 public:
  explicit AggAccumulator(const FunctionCallExpr* call) : call_(call) {}

  /// COUNT(*): counts the row itself, NULLs and all — there is no
  /// argument to inspect, so NULL rows are never skipped.
  Status AccumulateStar() {
    ++count_;
    return Status::OK();
  }

  Status Accumulate(const Value& v) {
    if (v.is_null()) return Status::OK();  // SQL: aggregates skip NULLs
    ++count_;
    const std::string& name = call_->name();
    if (name == "COUNT") return Status::OK();
    if (name == "SUM" || name == "AVG") {
      if (!v.is_numeric()) {
        return Status::ExecutionError(name + " over non-numeric value");
      }
      if (v.is_real()) saw_real_ = true;
      sum_real_ += v.NumericAsReal();
      sum_int_ += v.is_integer() ? v.AsInteger() : 0;
      return Status::OK();
    }
    if (name == "MIN") {
      if (!has_minmax_ || v.Compare(minmax_) < 0) minmax_ = v;
      has_minmax_ = true;
      return Status::OK();
    }
    if (name == "MAX") {
      if (!has_minmax_ || v.Compare(minmax_) > 0) minmax_ = v;
      has_minmax_ = true;
      return Status::OK();
    }
    return Status::Internal("unknown aggregate " + name);
  }

  Result<Value> Finish() const {
    const std::string& name = call_->name();
    if (name == "COUNT") return Value::Integer(count_);
    if (count_ == 0) return Value::Null_();  // empty group → NULL
    if (name == "SUM") {
      if (saw_real_) return Value::Real(sum_real_);
      if (sum_int_ < std::numeric_limits<int64_t>::min() ||
          sum_int_ > std::numeric_limits<int64_t>::max()) {
        return IntegerOverflow();
      }
      return Value::Integer(static_cast<int64_t>(sum_int_));
    }
    if (name == "AVG") {
      return Value::Real(sum_real_ / static_cast<double>(count_));
    }
    return minmax_;  // MIN / MAX
  }

 private:
  const FunctionCallExpr* call_;
  int64_t count_ = 0;
  double sum_real_ = 0.0;
  /// Exact: only the total has to fit INTEGER, not every partial sum.
  __int128 sum_int_ = 0;
  bool saw_real_ = false;
  Value minmax_;
  bool has_minmax_ = false;
};

/// Hash-join key hashing, consistent with Value::Compare equality:
/// numerics normalize to double (collapsing -0.0 into 0.0 and every NaN
/// into one) so that Compare == 0 always implies hash-equal across
/// INTEGER/REAL.
/// NULL keys never reach the hash table — SQL `=` is never TRUE on
/// NULL, so both sides drop NULL-keyed rows before hashing.
struct JoinKeyHash {
  size_t operator()(const Row& key) const {
    size_t h = 0x9e3779b97f4a7c15ULL;
    for (const Value& v : key) {
      size_t e = 0;
      if (v.is_numeric()) {
        double d = v.NumericAsReal();
        if (d == 0.0) d = 0.0;  // -0.0 and 0.0 compare equal
        if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
        e = std::hash<double>{}(d);
      } else if (v.is_boolean()) {
        e = std::hash<bool>{}(v.AsBoolean());
      } else if (v.is_text()) {
        e = std::hash<std::string>{}(v.AsText());
      }
      h ^= e + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }
};

struct JoinKeyEq {
  bool operator()(const Row& a, const Row& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].Compare(b[i]) != 0) return false;
    }
    return true;
  }
};

/// A row mid-join: the combined row (full SELECT width, NULL-padded in
/// the not-yet-joined slots) plus the per-source ordinal of each part.
/// Sorting the final rows by the ordinal tuple in FROM order reproduces
/// the odometer order of the cross product exactly.
struct JoinedRow {
  Row row;
  std::vector<uint32_t> ord;
};

}  // namespace

Status Executor::CheckQualifier(const TableRef& ref) const {
  if (!ref.database.empty() &&
      !EqualsIgnoreCase(ref.database, db_->name())) {
    return Status::NotFound("table reference '" + ref.FullName() +
                            "' names database '" + ref.database +
                            "' but this session is connected to '" +
                            db_->name() + "'");
  }
  return Status::OK();
}

Status Executor::RejectViewTarget(const TableRef& ref) const {
  if (db_->HasView(ref.table)) {
    return Status::InvalidArgument("'" + ToLower(ref.table) +
                                   "' is a view; views cannot be "
                                   "modified");
  }
  return Status::OK();
}

Result<ResultSet> Executor::Execute(const Statement& stmt) {
  if (txn_->state() != TxnState::kActive) {
    return Status::TransactionError(
        "statement issued against a transaction in state " +
        std::string(TxnStateName(txn_->state())));
  }
  switch (stmt.kind()) {
    case StatementKind::kSelect:
      return ExecuteSelect(static_cast<const SelectStmt&>(stmt));
    case StatementKind::kInsert:
      return ExecuteInsert(static_cast<const InsertStmt&>(stmt));
    case StatementKind::kUpdate:
      return ExecuteUpdate(static_cast<const UpdateStmt&>(stmt));
    case StatementKind::kDelete:
      return ExecuteDelete(static_cast<const DeleteStmt&>(stmt));
    case StatementKind::kCreateTable:
      return ExecuteCreateTable(static_cast<const CreateTableStmt&>(stmt));
    case StatementKind::kDropTable:
      return ExecuteDropTable(static_cast<const DropTableStmt&>(stmt));
    case StatementKind::kCreateView:
      return ExecuteCreateView(static_cast<const CreateViewStmt&>(stmt));
    case StatementKind::kDropView:
      return ExecuteDropView(static_cast<const DropViewStmt&>(stmt));
    case StatementKind::kCreateIndex:
      return ExecuteCreateIndex(static_cast<const CreateIndexStmt&>(stmt));
    case StatementKind::kDropIndex:
      return ExecuteDropIndex(static_cast<const DropIndexStmt&>(stmt));
    default:
      return Status::InvalidArgument(
          "statement kind not executable at database level: " +
          stmt.ToSql());
  }
}

Result<Value> Executor::EvalScalarSubquery(const SelectStmt& stmt) {
  auto memo = subquery_values_.find(&stmt);
  if (memo != subquery_values_.end()) return memo->second;
  MSQL_ASSIGN_OR_RETURN(ResultSet rs, ExecuteSelect(stmt));
  if (rs.columns.size() != 1) {
    return Status::ExecutionError(
        "scalar subquery must produce exactly one column, got " +
        std::to_string(rs.columns.size()));
  }
  if (rs.rows.size() > 1) {
    return Status::ExecutionError(
        "scalar subquery produced more than one row");
  }
  Value value = rs.rows.empty() ? Value::Null_() : std::move(rs.rows[0][0]);
  return subquery_values_.emplace(&stmt, std::move(value)).first->second;
}

Result<ResultSet> Executor::ExecuteSelect(const SelectStmt& stmt) {
  if (stmt.from.empty()) {
    return Status::ExecutionError("SELECT without FROM is not supported");
  }
  std::vector<ResolvedSource> sources;
  RowBinding binding;
  int64_t recursive_scanned = 0;
  MSQL_RETURN_IF_ERROR(
      ResolveSources(stmt, &sources, &binding, &recursive_scanned));

  ExprEvaluator evaluator(
      &binding, [this](const SelectStmt& sub) -> Result<Value> {
        return EvalScalarSubquery(sub);
      });

  // Expand '*' select items into explicit column references. Other
  // items stay the statement's own nodes: a scalar subquery among them
  // keeps the identity its memo entry is keyed by.
  std::vector<std::unique_ptr<ColumnRefExpr>> star_columns;
  std::vector<OutputItem> items;
  for (const auto& item : stmt.items) {
    if (!item.is_star) {
      items.push_back({item.expr.get(), SelectItemOutputName(item)});
      continue;
    }
    bool matched = false;
    for (const auto& src : sources) {
      if (!item.star_qualifier.empty() &&
          !EqualsIgnoreCase(src.effective_name, item.star_qualifier)) {
        continue;
      }
      matched = true;
      for (const auto& col : src.schema.columns()) {
        star_columns.push_back(
            std::make_unique<ColumnRefExpr>(src.effective_name, col.name));
        items.push_back({star_columns.back().get(), col.name});
      }
    }
    if (!matched) {
      return Status::NotFound("'*' qualifier '" + item.star_qualifier +
                              "' does not match any FROM table");
    }
  }
  if (items.empty()) {
    return Status::ExecutionError("empty select list");
  }

  // Materialize the filtered join through the plan (pushdown + index
  // probes + hash joins, or the cross-product plan).
  if (options_.metrics != nullptr) options_.metrics->Inc("sql.selects");
  SelectPlan plan;
  {
    obs::ScopedSpan plan_span(options_.tracer, "sql.plan", "sql");
    MSQL_ASSIGN_OR_RETURN(
        plan, PlanSelect(stmt.where.get(), PlannerSources(sources)));
  }
  int64_t rows_scanned = recursive_scanned;
  int64_t rows_evaluated = 0;
  MSQL_ASSIGN_OR_RETURN(std::vector<Row> matched_rows,
                        RunPlannedJoin(plan, &sources, evaluator,
                                       &rows_scanned, &rows_evaluated));
  if (options_.metrics != nullptr) {
    options_.metrics->Observe("sql.rows_evaluated", rows_evaluated);
  }

  // Decide between plain projection and aggregation.
  std::vector<const FunctionCallExpr*> agg_calls;
  for (const auto& item : items) CollectAggregates(*item.expr, &agg_calls);
  const bool has_aggregate = !agg_calls.empty() ||
                             !stmt.group_by.empty() ||
                             stmt.having != nullptr;

  ResultSet out;
  out.rows_scanned = rows_scanned;
  out.rows_evaluated = rows_evaluated;
  if (options_.collect_plan_text) out.plan_text = plan.Explain();
  for (const auto& item : items) out.columns.push_back(item.name);

  // Pairs of (output row, source row used for ORDER BY evaluation).
  std::vector<std::pair<Row, Row>> produced;

  if (!has_aggregate) {
    for (const auto& src_row : matched_rows) {
      Row out_row;
      out_row.reserve(items.size());
      for (const auto& item : items) {
        MSQL_ASSIGN_OR_RETURN(Value v, evaluator.Eval(*item.expr, src_row));
        out_row.push_back(std::move(v));
      }
      produced.emplace_back(std::move(out_row), src_row);
    }
  } else {
    // Every aggregate call reachable from the statement: the select
    // list's, then HAVING's and ORDER BY's.
    if (stmt.having != nullptr) CollectAggregates(*stmt.having, &agg_calls);
    for (const auto& ob : stmt.order_by) {
      CollectAggregates(*ob.expr, &agg_calls);
    }

    // Group rows. With no GROUP BY there is a single global group (which
    // exists even over zero input rows, per SQL).
    std::map<Row, std::vector<Row>, RowKeyLess> groups;
    if (stmt.group_by.empty()) {
      groups[Row{}] = std::move(matched_rows);
    } else {
      for (auto& src_row : matched_rows) {
        Row key;
        key.reserve(stmt.group_by.size());
        for (const auto& g : stmt.group_by) {
          MSQL_ASSIGN_OR_RETURN(Value v, evaluator.Eval(*g, src_row));
          key.push_back(std::move(v));
        }
        groups[std::move(key)].push_back(std::move(src_row));
      }
    }

    for (auto& [key, group_rows] : groups) {
      (void)key;
      // Compute each aggregate over the group.
      std::map<const Expr*, Value> agg_values;
      for (const FunctionCallExpr* call : agg_calls) {
        AggAccumulator acc(call);
        for (const auto& row : group_rows) {
          if (call->star()) {
            MSQL_RETURN_IF_ERROR(acc.AccumulateStar());
          } else {
            if (call->args().size() != 1) {
              return Status::ExecutionError(call->name() +
                                            " expects one argument");
            }
            MSQL_ASSIGN_OR_RETURN(Value v,
                                  evaluator.Eval(*call->args()[0], row));
            MSQL_RETURN_IF_ERROR(acc.Accumulate(v));
          }
        }
        MSQL_ASSIGN_OR_RETURN(Value total, acc.Finish());
        agg_values.emplace(call, std::move(total));
      }
      evaluator.set_aggregate_values(&agg_values);

      // Representative row for evaluating grouped columns; empty groups
      // (global aggregate over no rows) use an all-NULL row.
      Row representative;
      if (!group_rows.empty()) {
        representative = group_rows.front();
      } else {
        representative.assign(binding.size(), Value::Null_());
      }

      bool keep = true;
      if (stmt.having != nullptr) {
        MSQL_ASSIGN_OR_RETURN(
            keep, evaluator.EvalPredicate(*stmt.having, representative));
      }
      if (keep) {
        Row out_row;
        out_row.reserve(items.size());
        for (const auto& item : items) {
          MSQL_ASSIGN_OR_RETURN(Value v,
                                evaluator.Eval(*item.expr, representative));
          out_row.push_back(std::move(v));
        }
        produced.emplace_back(std::move(out_row), representative);
      }
      evaluator.set_aggregate_values(nullptr);
    }
  }

  // DISTINCT.
  if (stmt.distinct) {
    std::set<Row, RowKeyLess> seen;
    std::vector<std::pair<Row, Row>> unique;
    for (auto& pr : produced) {
      if (seen.insert(pr.first).second) unique.push_back(std::move(pr));
    }
    produced = std::move(unique);
  }

  // ORDER BY: keys evaluated against the source/representative row;
  // a bare column name that matches an output column sorts by output.
  if (!stmt.order_by.empty()) {
    struct Keyed {
      Row keys;
      std::vector<bool> desc;
      Row out_row;
    };
    std::vector<Keyed> keyed;
    keyed.reserve(produced.size());
    for (auto& pr : produced) {
      Keyed k;
      for (const auto& ob : stmt.order_by) {
        Value key_value;
        bool resolved = false;
        if (ob.expr->kind() == ExprKind::kColumnRef) {
          const auto& ref = static_cast<const ColumnRefExpr&>(*ob.expr);
          if (ref.qualifier().empty()) {
            for (size_t c = 0; c < out.columns.size(); ++c) {
              if (EqualsIgnoreCase(out.columns[c], ref.name())) {
                key_value = pr.first[c];
                resolved = true;
                break;
              }
            }
          }
        }
        if (!resolved) {
          MSQL_ASSIGN_OR_RETURN(key_value,
                                evaluator.Eval(*ob.expr, pr.second));
        }
        k.keys.push_back(std::move(key_value));
        k.desc.push_back(ob.descending);
      }
      k.out_row = std::move(pr.first);
      keyed.push_back(std::move(k));
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [](const Keyed& a, const Keyed& b) {
                       for (size_t i = 0; i < a.keys.size(); ++i) {
                         int c = a.keys[i].Compare(b.keys[i]);
                         if (c != 0) return a.desc[i] ? c > 0 : c < 0;
                       }
                       return false;
                     });
    out.rows.reserve(keyed.size());
    for (auto& k : keyed) out.rows.push_back(std::move(k.out_row));
  } else {
    out.rows.reserve(produced.size());
    for (auto& pr : produced) out.rows.push_back(std::move(pr.first));
  }
  return out;
}

Status Executor::ResolveSources(const SelectStmt& stmt,
                                std::vector<ResolvedSource>* sources,
                                RowBinding* binding,
                                int64_t* recursive_scanned) {
  for (const auto& ref : stmt.from) {
    MSQL_RETURN_IF_ERROR(CheckQualifier(ref));
    MSQL_RETURN_IF_ERROR(locks_->Acquire(txn_, LockKey(db_->name(), ref.table),
                                         LockManager::Mode::kShared));
    std::string eff = ToLower(ref.EffectiveName());
    ResolvedSource source;
    source.effective_name = eff;
    if (db_->HasView(ref.table)) {
      MSQL_ASSIGN_OR_RETURN(const SelectStmt* definition,
                            db_->GetView(ref.table));
      MSQL_ASSIGN_OR_RETURN(
          source.schema,
          InferSelectSchema(ToLower(ref.table), *definition,
                            [this](std::string_view t)
                                -> Result<const TableSchema*> {
                              MSQL_ASSIGN_OR_RETURN(
                                  const Table* base,
                                  db_->GetTableConst(t));
                              return &base->schema();
                            }));
      MSQL_ASSIGN_OR_RETURN(ResultSet materialized,
                            ExecuteSelect(*definition));
      if (materialized.columns.size() != source.schema.num_columns()) {
        return Status::Internal("view schema/materialization mismatch");
      }
      // Materializing the view cost real base-table scans; fold them
      // into this statement's accounting instead of dropping them.
      *recursive_scanned += materialized.rows_scanned;
      source.rows = std::move(materialized.rows);
    } else {
      MSQL_ASSIGN_OR_RETURN(const Table* table,
                            db_->GetTableConst(ref.table));
      source.schema = table->schema();
      // Rows are fetched by the join runner once an access path is
      // chosen (scan or index probe).
      source.table = table;
    }
    binding->AddTable(eff, source.schema);
    sources->push_back(std::move(source));
  }
  return Status::OK();
}

std::vector<PlannerSource> Executor::PlannerSources(
    const std::vector<ResolvedSource>& sources) {
  std::vector<PlannerSource> out;
  out.reserve(sources.size());
  for (const auto& src : sources) {
    PlannerSource ps;
    ps.effective_name = src.effective_name;
    ps.schema = &src.schema;
    ps.row_count =
        src.table != nullptr ? src.table->live_row_count() : src.rows.size();
    ps.table = src.table;
    out.push_back(std::move(ps));
  }
  return out;
}

Result<std::vector<Row>> Executor::RunPlannedJoin(
    const SelectPlan& plan, std::vector<ResolvedSource>* sources,
    const ExprEvaluator& evaluator, int64_t* rows_scanned,
    int64_t* rows_evaluated, std::vector<RowId>* ids) {
  obs::ScopedSpan join_span(options_.tracer, "sql.join", "sql");
  if (join_span.active()) {
    join_span.Annotate("sources",
                       static_cast<int64_t>(plan.num_sources()));
    join_span.Annotate("pushed_conjuncts", plan.pushed_conjuncts);
    join_span.Annotate("equi_keys", plan.equi_conjuncts);
  }
  if (options_.metrics != nullptr) {
    options_.metrics->Inc("sql.pushdown.conjuncts", plan.pushed_conjuncts);
  }

  // Fetch each source via its planned access path.
  for (size_t i = 0; i < sources->size(); ++i) {
    auto& src = (*sources)[i];
    if (src.table == nullptr) {  // view, already materialized
      *rows_scanned += static_cast<int64_t>(src.rows.size());
      continue;
    }
    if (const PlannedProbe* probe = plan.ProbeFor(i)) {
      if (options_.metrics != nullptr) {
        options_.metrics->Inc("sql.index_probes");
      }
      MSQL_ASSIGN_OR_RETURN(src.ids, probe->index->LookupIds(probe->key));
      src.rows.reserve(src.ids.size());
      for (RowId id : src.ids) {
        MSQL_ASSIGN_OR_RETURN(Row row, src.table->ReadRow(id));
        src.rows.push_back(std::move(row));
      }
    } else {
      MSQL_ASSIGN_OR_RETURN(src.rows, src.table->ScanRows(&src.ids));
    }
    *rows_scanned += static_cast<int64_t>(src.rows.size());
  }

  // An empty raw source empties the cross product before any predicate
  // runs, so no predicate error can surface — as in the odometer, which
  // never forms a combined row.
  for (const auto& src : *sources) {
    if (src.rows.empty()) return std::vector<Row>{};
  }

  // Pushed filters: evaluate single-source conjuncts on the source's
  // own rows, before any join.
  for (size_t i = 0; i < sources->size(); ++i) {
    bool has_filter = false;
    for (const auto& f : plan.filters) {
      if (f.source == i) has_filter = true;
    }
    if (!has_filter) continue;
    auto& src = (*sources)[i];
    RowBinding local;
    local.AddTable(src.effective_name, src.schema);
    ExprEvaluator local_eval(
        &local, [this](const SelectStmt& sub) -> Result<Value> {
          return EvalScalarSubquery(sub);
        });
    std::vector<Row> kept;
    std::vector<RowId> kept_ids;
    kept.reserve(src.rows.size());
    kept_ids.reserve(src.ids.size());
    for (size_t r = 0; r < src.rows.size(); ++r) {
      ++*rows_evaluated;
      bool keep = true;
      for (const auto& f : plan.filters) {
        if (f.source != i) continue;
        MSQL_ASSIGN_OR_RETURN(
            keep, local_eval.EvalPredicate(*f.conjunct, src.rows[r]));
        if (!keep) break;
      }
      if (!keep) continue;
      kept.push_back(std::move(src.rows[r]));
      if (!src.ids.empty()) kept_ids.push_back(src.ids[r]);
    }
    src.rows = std::move(kept);
    src.ids = std::move(kept_ids);
  }

  size_t total_width = 0;
  for (size_t w : plan.source_widths) total_width += w;

  // The join pipeline. Each step widens the joined prefix by one source:
  // hash build/probe when the planner found equi-keys, nested loops
  // otherwise. Rows stay at full combined width (NULL-padded in slots
  // not yet joined) so the statement's own binding evaluates residuals.
  std::vector<JoinedRow> prefix;
  for (size_t k = 0; k < plan.steps.size() && (k == 0 || !prefix.empty());
       ++k) {
    const JoinStep& step = plan.steps[k];
    const auto& src = (*sources)[step.source];
    const size_t off = plan.source_offsets[step.source];
    if (k == 0) {
      prefix.reserve(src.rows.size());
      for (size_t r = 0; r < src.rows.size(); ++r) {
        JoinedRow j;
        j.row.assign(total_width, Value::Null_());
        std::copy(src.rows[r].begin(), src.rows[r].end(),
                  j.row.begin() + static_cast<ptrdiff_t>(off));
        j.ord.assign(sources->size(), 0);
        j.ord[step.source] = static_cast<uint32_t>(r);
        prefix.push_back(std::move(j));
      }
      continue;
    }

    // Extends prefix row `p` with source row `r`, applies the step's
    // residual conjuncts, and appends survivors to `next`.
    std::vector<JoinedRow> next;
    auto emit = [&](const JoinedRow& p, size_t r) -> Status {
      ++*rows_evaluated;
      JoinedRow j;
      j.row = p.row;
      std::copy(src.rows[r].begin(), src.rows[r].end(),
                j.row.begin() + static_cast<ptrdiff_t>(off));
      j.ord = p.ord;
      j.ord[step.source] = static_cast<uint32_t>(r);
      bool keep = true;
      for (const Expr* res : step.residual) {
        MSQL_ASSIGN_OR_RETURN(keep, evaluator.EvalPredicate(*res, j.row));
        if (!keep) break;
      }
      if (keep) next.push_back(std::move(j));
      return Status::OK();
    };

    if (!step.keys.empty()) {
      if (options_.metrics != nullptr) {
        options_.metrics->Inc("sql.join.hash");
      }
      // Build on the new source, probe with the prefix.
      std::unordered_map<Row, std::vector<uint32_t>, JoinKeyHash, JoinKeyEq>
          built;
      built.reserve(src.rows.size());
      for (size_t r = 0; r < src.rows.size(); ++r) {
        Row key;
        key.reserve(step.keys.size());
        bool null_key = false;
        for (const auto& kk : step.keys) {
          const Value& v = src.rows[r][kk.source_pos - off];
          if (v.is_null()) {
            null_key = true;
            break;
          }
          key.push_back(v);
        }
        if (null_key) continue;
        built[std::move(key)].push_back(static_cast<uint32_t>(r));
      }
      for (const auto& p : prefix) {
        Row key;
        key.reserve(step.keys.size());
        bool null_key = false;
        for (const auto& kk : step.keys) {
          const Value& v = p.row[kk.prefix_pos];
          if (v.is_null()) {
            null_key = true;
            break;
          }
          key.push_back(v);
        }
        if (null_key) continue;
        auto it = built.find(key);
        if (it == built.end()) continue;
        for (uint32_t r : it->second) {
          MSQL_RETURN_IF_ERROR(emit(p, r));
        }
      }
    } else {
      if (options_.metrics != nullptr) {
        options_.metrics->Inc("sql.join.nested_loop");
      }
      for (const auto& p : prefix) {
        for (size_t r = 0; r < src.rows.size(); ++r) {
          MSQL_RETURN_IF_ERROR(emit(p, r));
        }
      }
    }
    prefix = std::move(next);
  }

  // Restore the cross product's FROM-major odometer order, then apply
  // the conjuncts only decidable on fully joined rows.
  std::sort(prefix.begin(), prefix.end(),
            [](const JoinedRow& a, const JoinedRow& b) {
              return a.ord < b.ord;
            });
  std::vector<Row> matched_rows;
  matched_rows.reserve(prefix.size());
  for (auto& j : prefix) {
    bool keep = true;
    for (const Expr* res : plan.final_residual) {
      MSQL_ASSIGN_OR_RETURN(keep, evaluator.EvalPredicate(*res, j.row));
      if (!keep) break;
    }
    if (!keep) continue;
    if (ids != nullptr) ids->push_back((*sources)[0].ids[j.ord[0]]);
    matched_rows.push_back(std::move(j.row));
  }
  return matched_rows;
}

Result<std::string> Executor::Explain(const Statement& stmt) {
  obs::ScopedSpan plan_span(options_.tracer, "sql.plan", "sql");
  std::vector<ResolvedSource> sources;
  SelectPlan plan;
  switch (stmt.kind()) {
    case StatementKind::kSelect: {
      const auto& select = static_cast<const SelectStmt&>(stmt);
      if (select.from.empty()) {
        return Status::ExecutionError("SELECT without FROM is not supported");
      }
      RowBinding binding;
      int64_t recursive_scanned = 0;
      MSQL_RETURN_IF_ERROR(
          ResolveSources(select, &sources, &binding, &recursive_scanned));
      MSQL_ASSIGN_OR_RETURN(
          plan, PlanSelect(select.where.get(), PlannerSources(sources)));
      break;
    }
    case StatementKind::kUpdate:
    case StatementKind::kDelete: {
      const bool update = stmt.kind() == StatementKind::kUpdate;
      const TableRef& ref =
          update ? static_cast<const UpdateStmt&>(stmt).table
                 : static_cast<const DeleteStmt&>(stmt).table;
      const Expr* where =
          update ? static_cast<const UpdateStmt&>(stmt).where.get()
                 : static_cast<const DeleteStmt&>(stmt).where.get();
      // Planning only reads the target, so EXPLAIN takes a shared lock.
      MSQL_ASSIGN_OR_RETURN(Table * table,
                            LockTarget(ref, LockManager::Mode::kShared));
      MSQL_ASSIGN_OR_RETURN(plan, PlanTarget(ref, table, where, &sources));
      break;
    }
    default:
      return Status::InvalidArgument(
          "EXPLAIN requires a SELECT, UPDATE or DELETE statement");
  }
  return plan.Explain();
}

Result<Table*> Executor::LockTarget(const TableRef& ref,
                                    LockManager::Mode mode) {
  MSQL_RETURN_IF_ERROR(CheckQualifier(ref));
  MSQL_RETURN_IF_ERROR(RejectViewTarget(ref));
  MSQL_RETURN_IF_ERROR(
      locks_->Acquire(txn_, LockKey(db_->name(), ref.table), mode));
  return db_->GetTable(ref.table);
}

Result<SelectPlan> Executor::PlanTarget(const TableRef& ref,
                                        const Table* table, const Expr* where,
                                        std::vector<ResolvedSource>* sources) {
  ResolvedSource source;
  source.effective_name = ToLower(ref.EffectiveName());
  source.schema = table->schema();
  source.table = table;
  sources->push_back(std::move(source));
  return PlanSelect(where, PlannerSources(*sources));
}

Status Executor::MatchTargets(const TableRef& ref, const Table* table,
                              const Expr* where, std::vector<RowId>* ids,
                              std::vector<Row>* rows, ResultSet* out) {
  std::vector<ResolvedSource> sources;
  SelectPlan plan;
  {
    obs::ScopedSpan plan_span(options_.tracer, "sql.plan", "sql");
    MSQL_ASSIGN_OR_RETURN(plan, PlanTarget(ref, table, where, &sources));
  }
  RowBinding binding;
  binding.AddTable(sources[0].effective_name, sources[0].schema);
  ExprEvaluator evaluator(
      &binding, [this](const SelectStmt& sub) -> Result<Value> {
        return EvalScalarSubquery(sub);
      });
  // Both access paths fetch in ascending rowid order (a scan walks the
  // slots, LookupIds is ascending) and the join keeps fetch order, so
  // `ids` comes out ascending.
  MSQL_ASSIGN_OR_RETURN(*rows, RunPlannedJoin(plan, &sources, evaluator,
                                              &out->rows_scanned,
                                              &out->rows_evaluated, ids));
  if (options_.metrics != nullptr) {
    options_.metrics->Observe("sql.rows_evaluated", out->rows_evaluated);
  }
  if (options_.collect_plan_text) out->plan_text = plan.Explain();
  return Status::OK();
}

Result<ResultSet> Executor::ExecuteInsert(const InsertStmt& stmt) {
  MSQL_ASSIGN_OR_RETURN(Table * table,
                        LockTarget(stmt.table, LockManager::Mode::kExclusive));
  const TableSchema& schema = table->schema();

  // Resolve target column positions.
  std::vector<size_t> positions;
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < schema.num_columns(); ++i) positions.push_back(i);
  } else {
    for (const auto& col : stmt.columns) {
      auto idx = schema.FindColumn(col);
      if (!idx.has_value()) {
        return Status::NotFound("column '" + col + "' not in table '" +
                                schema.table_name() + "'");
      }
      positions.push_back(*idx);
    }
  }

  // Collect the rows to insert. A TRANSFER's typed rows are read where
  // they are; VALUES and INSERT ... SELECT rows are built here.
  std::vector<Row> built;
  if (stmt.typed_rows != nullptr) {
    // Borrowed: nothing to evaluate.
  } else if (stmt.select_source != nullptr) {
    MSQL_ASSIGN_OR_RETURN(ResultSet src, ExecuteSelect(*stmt.select_source));
    built = std::move(src.rows);
  } else {
    RowBinding empty_binding;
    ExprEvaluator evaluator(
        &empty_binding, [this](const SelectStmt& sub) -> Result<Value> {
          return EvalScalarSubquery(sub);
        });
    Row no_row;
    for (const auto& exprs : stmt.values_rows) {
      Row row;
      row.reserve(exprs.size());
      for (const auto& e : exprs) {
        MSQL_ASSIGN_OR_RETURN(Value v, evaluator.Eval(*e, no_row));
        row.push_back(std::move(v));
      }
      built.push_back(std::move(row));
    }
  }
  const bool borrowed = stmt.typed_rows != nullptr;
  const std::vector<Row>& rows = borrowed ? *stmt.typed_rows : built;

  txn_->ReserveUndo(rows.size());
  int64_t inserted = 0;
  for (size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != positions.size()) {
      return Status::InvalidArgument(
          "INSERT provides " + std::to_string(rows[r].size()) +
          " values for " + std::to_string(positions.size()) + " columns");
    }
    Row full(schema.num_columns(), Value::Null_());
    for (size_t i = 0; i < positions.size(); ++i) {
      // A built row moves into the table; a borrowed one is copied once.
      if (borrowed) {
        full[positions[i]] = rows[r][i];
      } else {
        full[positions[i]] = std::move(built[r][i]);
      }
    }
    MSQL_ASSIGN_OR_RETURN(RowId id, table->Insert(std::move(full)));
    UndoRecord rec;
    rec.kind = UndoRecord::Kind::kInsert;
    rec.database = db_->name();
    rec.table = schema.table_name();
    rec.row_id = id;
    txn_->RecordUndo(std::move(rec));
    ++inserted;
  }
  ResultSet out;
  out.rows_affected = inserted;
  return out;
}

Result<ResultSet> Executor::ExecuteUpdate(const UpdateStmt& stmt) {
  MSQL_ASSIGN_OR_RETURN(Table * table,
                        LockTarget(stmt.table, LockManager::Mode::kExclusive));
  const TableSchema& schema = table->schema();

  // Resolve assignment targets.
  std::vector<size_t> targets;
  for (const auto& a : stmt.assignments) {
    auto idx = schema.FindColumn(a.column);
    if (!idx.has_value()) {
      return Status::NotFound("column '" + a.column + "' not in table '" +
                              schema.table_name() + "'");
    }
    targets.push_back(*idx);
  }

  // Phase 1: select the target rows and compute their new images against
  // the pre-update state (scalar subqueries in WHERE/SET therefore see a
  // consistent snapshot).
  ResultSet out;
  std::vector<RowId> ids;
  std::vector<Row> rows;
  MSQL_RETURN_IF_ERROR(
      MatchTargets(stmt.table, table, stmt.where.get(), &ids, &rows, &out));
  RowBinding binding;
  binding.AddTable(ToLower(stmt.table.EffectiveName()), schema);
  ExprEvaluator evaluator(
      &binding, [this](const SelectStmt& sub) -> Result<Value> {
        return EvalScalarSubquery(sub);
      });
  std::vector<Value> values(targets.size());
  for (Row& row : rows) {
    for (size_t i = 0; i < targets.size(); ++i) {
      MSQL_ASSIGN_OR_RETURN(values[i],
                            evaluator.Eval(*stmt.assignments[i].value, row));
    }
    for (size_t i = 0; i < targets.size(); ++i) {
      row[targets[i]] = std::move(values[i]);
    }
  }

  // Phase 2: apply, in ascending rowid order.
  for (size_t i = 0; i < ids.size(); ++i) {
    MSQL_ASSIGN_OR_RETURN(Row before, table->Update(ids[i], std::move(rows[i])));
    UndoRecord rec;
    rec.kind = UndoRecord::Kind::kUpdate;
    rec.database = db_->name();
    rec.table = schema.table_name();
    rec.row_id = ids[i];
    rec.before = std::move(before);
    txn_->RecordUndo(std::move(rec));
  }
  out.rows_affected = static_cast<int64_t>(ids.size());
  return out;
}

Result<ResultSet> Executor::ExecuteDelete(const DeleteStmt& stmt) {
  MSQL_ASSIGN_OR_RETURN(Table * table,
                        LockTarget(stmt.table, LockManager::Mode::kExclusive));
  ResultSet out;
  std::vector<RowId> ids;
  std::vector<Row> rows;
  MSQL_RETURN_IF_ERROR(
      MatchTargets(stmt.table, table, stmt.where.get(), &ids, &rows, &out));
  for (RowId id : ids) {
    MSQL_ASSIGN_OR_RETURN(Row before, table->Delete(id));
    UndoRecord rec;
    rec.kind = UndoRecord::Kind::kDelete;
    rec.database = db_->name();
    rec.table = table->schema().table_name();
    rec.row_id = id;
    rec.before = std::move(before);
    txn_->RecordUndo(std::move(rec));
  }
  out.rows_affected = static_cast<int64_t>(ids.size());
  return out;
}

Result<TableSchema> SchemaOf(const CreateTableStmt& stmt) {
  std::vector<ColumnDef> cols;
  cols.reserve(stmt.columns.size());
  for (const auto& spec : stmt.columns) {
    ColumnDef def;
    def.name = spec.name;
    MSQL_ASSIGN_OR_RETURN(def.type, TypeFromName(spec.type_name));
    def.width = spec.width;
    cols.push_back(std::move(def));
  }
  return TableSchema::Create(stmt.table.table, std::move(cols));
}

Result<ResultSet> Executor::ExecuteCreateTable(const CreateTableStmt& stmt) {
  MSQL_RETURN_IF_ERROR(CheckQualifier(stmt.table));
  MSQL_ASSIGN_OR_RETURN(TableSchema schema, SchemaOf(stmt));
  MSQL_RETURN_IF_ERROR(
      locks_->Acquire(txn_, LockKey(db_->name(), schema.table_name()),
                      LockManager::Mode::kExclusive));
  MSQL_RETURN_IF_ERROR(db_->CreateTable(std::move(schema)));
  if (options_.record_ddl_undo) {
    UndoRecord rec;
    rec.kind = UndoRecord::Kind::kCreateTable;
    rec.database = db_->name();
    rec.table = ToLower(stmt.table.table);
    txn_->RecordUndo(std::move(rec));
  }
  ResultSet out;
  out.rows_affected = 0;
  return out;
}

Result<ResultSet> Executor::ExecuteDropTable(const DropTableStmt& stmt) {
  MSQL_RETURN_IF_ERROR(CheckQualifier(stmt.table));
  MSQL_RETURN_IF_ERROR(
      locks_->Acquire(txn_, LockKey(db_->name(), ToLower(stmt.table.table)),
                      LockManager::Mode::kExclusive));
  MSQL_ASSIGN_OR_RETURN(auto dropped, db_->DropTable(stmt.table.table));
  if (options_.record_ddl_undo) {
    UndoRecord rec;
    rec.kind = UndoRecord::Kind::kDropTable;
    rec.database = db_->name();
    rec.table = dropped->schema().table_name();
    rec.dropped_table = std::move(dropped);
    txn_->RecordUndo(std::move(rec));
  }
  ResultSet out;
  out.rows_affected = 0;
  return out;
}

Result<ResultSet> Executor::ExecuteCreateView(const CreateViewStmt& stmt) {
  MSQL_RETURN_IF_ERROR(
      locks_->Acquire(txn_, LockKey(db_->name(), ToLower(stmt.name)),
                      LockManager::Mode::kExclusive));
  // Validate the definition against the current schemas (so a broken
  // view is rejected at creation, not at first scan).
  MSQL_RETURN_IF_ERROR(
      InferSelectSchema(ToLower(stmt.name), *stmt.definition,
                        [this](std::string_view t)
                            -> Result<const TableSchema*> {
                          MSQL_ASSIGN_OR_RETURN(const Table* base,
                                                db_->GetTableConst(t));
                          return &base->schema();
                        })
          .status());
  MSQL_RETURN_IF_ERROR(
      db_->CreateView(stmt.name, stmt.definition->CloneSelect()));
  if (options_.record_ddl_undo) {
    UndoRecord rec;
    rec.kind = UndoRecord::Kind::kCreateView;
    rec.database = db_->name();
    rec.table = ToLower(stmt.name);
    txn_->RecordUndo(std::move(rec));
  }
  ResultSet out;
  out.rows_affected = 0;
  return out;
}

Result<ResultSet> Executor::ExecuteDropView(const DropViewStmt& stmt) {
  MSQL_RETURN_IF_ERROR(
      locks_->Acquire(txn_, LockKey(db_->name(), ToLower(stmt.name)),
                      LockManager::Mode::kExclusive));
  MSQL_ASSIGN_OR_RETURN(auto dropped, db_->DropView(stmt.name));
  if (options_.record_ddl_undo) {
    UndoRecord rec;
    rec.kind = UndoRecord::Kind::kDropView;
    rec.database = db_->name();
    rec.table = ToLower(stmt.name);
    rec.dropped_view = std::move(dropped);
    txn_->RecordUndo(std::move(rec));
  }
  ResultSet out;
  out.rows_affected = 0;
  return out;
}

Result<ResultSet> Executor::ExecuteCreateIndex(const CreateIndexStmt& stmt) {
  MSQL_RETURN_IF_ERROR(CheckQualifier(stmt.table));
  MSQL_RETURN_IF_ERROR(RejectViewTarget(stmt.table));
  MSQL_RETURN_IF_ERROR(
      locks_->Acquire(txn_, LockKey(db_->name(), ToLower(stmt.table.table)),
                      LockManager::Mode::kExclusive));
  MSQL_ASSIGN_OR_RETURN(Table * table, db_->GetTable(stmt.table.table));
  MSQL_RETURN_IF_ERROR(table->CreateIndex(stmt.name, stmt.column));
  if (options_.record_ddl_undo) {
    UndoRecord rec;
    rec.kind = UndoRecord::Kind::kCreateIndex;
    rec.database = db_->name();
    rec.table = table->schema().table_name();
    rec.index_name = ToLower(stmt.name);
    txn_->RecordUndo(std::move(rec));
  }
  ResultSet out;
  out.rows_affected = 0;
  return out;
}

Result<ResultSet> Executor::ExecuteDropIndex(const DropIndexStmt& stmt) {
  MSQL_RETURN_IF_ERROR(CheckQualifier(stmt.table));
  MSQL_RETURN_IF_ERROR(
      locks_->Acquire(txn_, LockKey(db_->name(), ToLower(stmt.table.table)),
                      LockManager::Mode::kExclusive));
  MSQL_ASSIGN_OR_RETURN(Table * table, db_->GetTable(stmt.table.table));
  MSQL_ASSIGN_OR_RETURN(std::string column, table->DropIndex(stmt.name));
  if (options_.record_ddl_undo) {
    UndoRecord rec;
    rec.kind = UndoRecord::Kind::kDropIndex;
    rec.database = db_->name();
    rec.table = table->schema().table_name();
    rec.index_name = ToLower(stmt.name);
    rec.index_column = std::move(column);
    txn_->RecordUndo(std::move(rec));
  }
  ResultSet out;
  out.rows_affected = 0;
  return out;
}

}  // namespace msql::relational
