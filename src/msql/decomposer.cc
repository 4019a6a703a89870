#include "msql/decomposer.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "common/string_util.h"

namespace msql::lang {

using relational::BinaryExpr;
using relational::BinaryOp;
using relational::ColumnDef;
using relational::ColumnRefExpr;
using relational::Expr;
using relational::ExprKind;
using relational::ExprPtr;
using relational::SelectItem;
using relational::SelectStmt;
using relational::TableRef;
using relational::TableSchema;

namespace {

/// Where one effective FROM name lives and what it looks like.
struct BoundTable {
  std::string database;
  const TableSchema* schema;
};

using BindingMap = std::map<std::string, BoundTable>;  // effective name →

/// Resolves a column ref to its effective FROM table name.
Result<std::string> ResolveTableOf(const ColumnRefExpr& ref,
                                   const BindingMap& binding) {
  if (!ref.qualifier().empty()) {
    auto it = binding.find(ref.qualifier());
    if (it == binding.end()) {
      return Status::NotFound("qualifier '" + ref.qualifier() +
                              "' does not name a FROM table");
    }
    if (!it->second.schema->HasColumn(ref.name())) {
      return Status::NotFound("column '" + ref.FullName() +
                              "' not found in its table");
    }
    return it->first;
  }
  std::string found;
  for (const auto& [name, bound] : binding) {
    if (bound.schema->HasColumn(ref.name())) {
      if (!found.empty()) {
        return Status::InvalidArgument("unqualified column '" + ref.name() +
                                       "' is ambiguous across databases");
      }
      found = name;
    }
  }
  if (found.empty()) {
    return Status::NotFound("column '" + ref.name() +
                            "' not found in any FROM table");
  }
  return found;
}

/// Collects the column refs of `e`; scalar subqueries are not supported
/// in a join that spans databases.
Status CollectJoinRefs(const Expr& e,
                       std::vector<const ColumnRefExpr*>* out) {
  if (relational::ContainsScalarSubquery(e)) {
    return Status::InvalidArgument(
        "scalar subqueries are not supported in multidatabase joins");
  }
  relational::CollectColumnRefs(e, out);
  return Status::OK();
}

/// Rewrites every column ref in `e` to its temp-table home:
/// (temp_table_of_db, "<effective>__<col>").
Status RewriteToTemp(
    Expr* e, const BindingMap& binding,
    const std::map<std::string, std::string>& temp_of_database) {
  if (e->kind() == ExprKind::kScalarSubquery) {
    return Status::InvalidArgument(
        "scalar subqueries are not supported in multidatabase joins");
  }
  if (e->kind() == ExprKind::kColumnRef) {
    auto* ref = static_cast<ColumnRefExpr*>(e);
    MSQL_ASSIGN_OR_RETURN(std::string table, ResolveTableOf(*ref, binding));
    const BoundTable& bound = binding.at(table);
    ref->set_qualifier(temp_of_database.at(bound.database));
    ref->set_name(table + "__" + ref->name());
    return Status::OK();
  }
  Status status;
  relational::ForEachChild(*e, [&](Expr& child) {
    if (status.ok()) status = RewriteToTemp(&child, binding, temp_of_database);
  });
  return status;
}

}  // namespace

bool Decomposer::IsMultidatabase(const SelectStmt& stmt) {
  std::set<std::string> dbs;
  for (const auto& ref : stmt.from) {
    dbs.insert(ToLower(ref.database));  // "" groups the unqualified ones
  }
  // Two or more distinct qualifiers (including "mixed qualified and
  // unqualified", which Decompose will reject with a clear error).
  return dbs.size() > 1;
}

Result<Decomposition> Decomposer::Decompose(const SelectStmt& stmt) const {
  if (stmt.from.empty()) {
    return Status::InvalidArgument("query has no FROM clause");
  }
  // Bind every FROM table.
  BindingMap binding;
  std::vector<std::string> database_order;  // first-appearance order
  std::map<std::string, std::vector<std::string>> tables_of_db;
  for (const auto& ref : stmt.from) {
    if (ref.database.empty()) {
      return Status::InvalidArgument(
          "multidatabase join requires database-qualified table '" +
          ref.table + "'");
    }
    MSQL_ASSIGN_OR_RETURN(const TableSchema* schema,
                          gdd_->GetTable(ref.database, ref.table));
    std::string eff = ToLower(ref.EffectiveName());
    if (binding.count(eff) > 0) {
      return Status::InvalidArgument("duplicate FROM name '" + eff + "'");
    }
    std::string db = ToLower(ref.database);
    binding.emplace(eff, BoundTable{db, schema});
    if (tables_of_db.count(db) == 0) database_order.push_back(db);
    tables_of_db[db].push_back(eff);
  }
  if (database_order.size() < 2) {
    return Status::InvalidArgument(
        "query references a single database; no decomposition needed");
  }

  // Conjunct classification.
  std::vector<const Expr*> conjuncts;
  if (stmt.where != nullptr) {
    relational::SplitConjuncts(*stmt.where, &conjuncts);
  }
  std::map<std::string, std::vector<const Expr*>> local_conjuncts;
  std::vector<const Expr*> global_conjuncts;
  for (const Expr* c : conjuncts) {
    std::vector<const ColumnRefExpr*> refs;
    MSQL_RETURN_IF_ERROR(CollectJoinRefs(*c, &refs));
    std::set<std::string> dbs;
    for (const auto* ref : refs) {
      MSQL_ASSIGN_OR_RETURN(std::string table, ResolveTableOf(*ref, binding));
      dbs.insert(binding.at(table).database);
    }
    if (dbs.size() == 1 && push_down_conjuncts_) {
      local_conjuncts[*dbs.begin()].push_back(c);
    } else {
      global_conjuncts.push_back(c);  // dbs.empty() → constant: keep global
    }
  }

  // Needed columns per effective table: referenced anywhere outside a
  // pushed-down local conjunct (i.e. select list, global conjuncts,
  // group/having/order).
  std::map<std::string, std::set<std::string>> needed;  // eff table → cols
  auto need_from = [&](const Expr& e) -> Status {
    std::vector<const ColumnRefExpr*> refs;
    MSQL_RETURN_IF_ERROR(CollectJoinRefs(e, &refs));
    for (const auto* ref : refs) {
      MSQL_ASSIGN_OR_RETURN(std::string table, ResolveTableOf(*ref, binding));
      needed[table].insert(ref->name());
    }
    return Status::OK();
  };
  for (const auto& item : stmt.items) {
    if (item.is_star) {
      // `*` needs every column of the matching tables.
      for (const auto& [eff, bound] : binding) {
        if (!item.star_qualifier.empty() &&
            !EqualsIgnoreCase(eff, item.star_qualifier)) {
          continue;
        }
        for (const auto& col : bound.schema->columns()) {
          needed[eff].insert(col.name);
        }
      }
      continue;
    }
    MSQL_RETURN_IF_ERROR(need_from(*item.expr));
  }
  for (const Expr* c : global_conjuncts) {
    MSQL_RETURN_IF_ERROR(need_from(*c));
  }
  for (const auto& g : stmt.group_by) MSQL_RETURN_IF_ERROR(need_from(*g));
  if (stmt.having != nullptr) MSQL_RETURN_IF_ERROR(need_from(*stmt.having));
  for (const auto& ob : stmt.order_by) {
    MSQL_RETURN_IF_ERROR(need_from(*ob.expr));
  }

  // Heuristic coordinator: database contributing the most tables.
  // Candidates are iterated in sorted name order with a strict '>', so
  // ties deterministically resolve to the first alphabetically — never
  // to FROM/USE clause order or map iteration order.
  std::string heuristic_coordinator;
  {
    size_t best = 0;
    std::vector<std::string> sorted = database_order;
    std::sort(sorted.begin(), sorted.end());
    for (const auto& db : sorted) {
      if (tables_of_db[db].size() > best) {
        best = tables_of_db[db].size();
        heuristic_coordinator = db;
      }
    }
  }

  // -- Cost-based coordinator + movement strategy -------------------------
  // With fresh ANALYZE statistics for every involved table, estimate each
  // database's post-pushdown partial result (rows × shipped bytes/row)
  // and (a) pick the coordinator minimizing the total estimated transfer
  // cost, (b) per remote subquery choose ship-whole vs. a semi-join-style
  // key-filter transfer. Any statistics gap falls back to the paper
  // heuristics for the whole query.
  std::string coordinator = heuristic_coordinator;
  bool cost_based_applied = false;
  std::string cost_text;
  struct SemiChoice {
    std::string target_eff, target_col;      // join column on this db
    std::string provider_eff, provider_col;  // join column at coordinator
    double key_count = 0;
    double key_bytes = 0;
    double reduced_rows = 0;
    double semi_micros = 0;
    double whole_micros = 0;
  };
  std::map<std::string, SemiChoice> semi_of_db;
  std::map<std::string, double> est_rows_of_db;
  std::map<std::string, double> est_row_bytes_of_db;
  if (cost_based_ && cost_context_ != nullptr) {
    const CostContext& ctx = *cost_context_;
    // Fresh stats for every effective table, or name what's missing.
    std::map<std::string, const TableCostStats*> stats_of_eff;
    std::string missing;
    for (const auto& [eff, bound] : binding) {
      const TableCostStats* ts =
          ctx.FindStats(bound.database, bound.schema->table_name());
      if (ts == nullptr && missing.empty()) {
        missing = bound.database + "." + bound.schema->table_name();
      }
      stats_of_eff[eff] = ts;
    }
    if (!missing.empty()) {
      cost_text = "cost: mode=heuristic coordinator=" +
                  heuristic_coordinator + " (no fresh statistics for " +
                  missing + "; run ANALYZE)\n";
    } else {
      auto distinct_of = [&](const ColumnRefExpr& ref) -> double {
        auto resolved = ResolveTableOf(ref, binding);
        if (!resolved.ok()) return 0.0;
        const TableCostStats* ts = stats_of_eff[*resolved];
        auto it = ts->columns.find(ToLower(ref.name()));
        return it == ts->columns.end()
                   ? 0.0
                   : static_cast<double>(it->second.distinct_values);
      };
      auto width_of = [&](const ColumnRefExpr& ref) -> double {
        auto resolved = ResolveTableOf(ref, binding);
        if (!resolved.ok()) return 8.0;
        const TableCostStats* ts = stats_of_eff[*resolved];
        auto it = ts->columns.find(ToLower(ref.name()));
        return it == ts->columns.end() || it->second.avg_width_bytes <= 0.0
                   ? 8.0
                   : it->second.avg_width_bytes;
      };
      // Selectivity of one pushed-down conjunct, using column distinct
      // counts when available and the planner's textbook fractions
      // (eq 1/10, other 1/3) otherwise.
      auto selectivity_of = [&](const Expr* c) -> double {
        if (c->kind() != ExprKind::kBinary) return 1.0 / 3.0;
        const auto& b = static_cast<const BinaryExpr&>(*c);
        if (b.op() != BinaryOp::kEq) return 1.0 / 3.0;
        const ColumnRefExpr* l =
            b.left().kind() == ExprKind::kColumnRef
                ? static_cast<const ColumnRefExpr*>(&b.left())
                : nullptr;
        const ColumnRefExpr* r =
            b.right().kind() == ExprKind::kColumnRef
                ? static_cast<const ColumnRefExpr*>(&b.right())
                : nullptr;
        if (l != nullptr && r != nullptr) {
          double d = std::max({distinct_of(*l), distinct_of(*r), 1.0});
          return 1.0 / d;
        }
        const ColumnRefExpr* col = l != nullptr ? l : r;
        if (col != nullptr) {
          double d = distinct_of(*col);
          if (d >= 1.0) return 1.0 / d;
        }
        return 1.0 / 10.0;
      };
      for (const auto& db : database_order) {
        double rows = 1.0;
        double row_bytes = 0.0;
        for (const auto& eff : tables_of_db[db]) {
          rows *= static_cast<double>(stats_of_eff[eff]->row_count);
          const TableCostStats* ts = stats_of_eff[eff];
          for (const auto& col : needed[eff]) {
            auto it = ts->columns.find(ToLower(col));
            row_bytes += it == ts->columns.end() ||
                                 it->second.avg_width_bytes <= 0.0
                             ? 8.0
                             : it->second.avg_width_bytes;
          }
        }
        for (const Expr* c : local_conjuncts[db]) {
          rows *= selectivity_of(c);
        }
        est_rows_of_db[db] = std::max(rows, 1.0);
        // A table shipping only the constant `one` still moves ~8 bytes
        // per row of framing.
        est_row_bytes_of_db[db] = std::max(row_bytes, 8.0);
      }
      // (a) Coordinator: minimize the total cost of moving every partial
      // result to the candidate. Iteration is in sorted name order with
      // table count as the tie-breaker, so exact cost ties resolve by
      // contribution size then name — again independent of clause order.
      std::vector<std::string> sorted = database_order;
      std::sort(sorted.begin(), sorted.end());
      double best_cost = 0.0;
      size_t best_tables = 0;
      bool first = true;
      for (const auto& candidate : sorted) {
        double total = 0.0;
        for (const auto& db : database_order) {
          total += ctx.ShipMicros(
              db, candidate, est_rows_of_db[db] * est_row_bytes_of_db[db]);
        }
        const size_t tables = tables_of_db[candidate].size();
        if (first || total < best_cost ||
            (total == best_cost && tables > best_tables)) {
          first = false;
          best_cost = total;
          best_tables = tables;
          coordinator = candidate;
        }
      }
      cost_based_applied = true;
      // (b) Movement: for each remote subquery, look for an equi-join
      // conjunct against the coordinator and compare shipping the whole
      // partial result with shipping the coordinator's DISTINCT join
      // keys there first (two extra round trips to install and drop the
      // key table, then only the matching rows travel).
      for (const auto& db : database_order) {
        if (db == coordinator) continue;
        for (const Expr* c : global_conjuncts) {
          if (c->kind() != ExprKind::kBinary) continue;
          const auto& b = static_cast<const BinaryExpr&>(*c);
          if (b.op() != BinaryOp::kEq) continue;
          if (b.left().kind() != ExprKind::kColumnRef ||
              b.right().kind() != ExprKind::kColumnRef) {
            continue;
          }
          const auto& l = static_cast<const ColumnRefExpr&>(b.left());
          const auto& r = static_cast<const ColumnRefExpr&>(b.right());
          auto lt = ResolveTableOf(l, binding);
          auto rt = ResolveTableOf(r, binding);
          if (!lt.ok() || !rt.ok()) continue;
          const std::string& ldb = binding.at(*lt).database;
          const std::string& rdb = binding.at(*rt).database;
          const ColumnRefExpr* target = nullptr;
          const ColumnRefExpr* provider = nullptr;
          std::string target_eff, provider_eff;
          if (ldb == db && rdb == coordinator) {
            target = &l, provider = &r;
            target_eff = *lt, provider_eff = *rt;
          } else if (rdb == db && ldb == coordinator) {
            target = &r, provider = &l;
            target_eff = *rt, provider_eff = *lt;
          } else {
            continue;
          }
          SemiChoice choice;
          choice.target_eff = target_eff;
          choice.target_col = ToLower(target->name());
          choice.provider_eff = provider_eff;
          choice.provider_col = ToLower(provider->name());
          choice.key_count = std::max(distinct_of(*provider), 1.0);
          choice.key_bytes = choice.key_count * width_of(*provider);
          const double target_distinct =
              std::max(distinct_of(*target), 1.0);
          const double reduction =
              std::min(1.0, choice.key_count / target_distinct);
          choice.reduced_rows =
              std::max(1.0, est_rows_of_db[db] * reduction);
          const double bytes_whole =
              est_rows_of_db[db] * est_row_bytes_of_db[db];
          choice.whole_micros = ctx.ShipMicros(db, coordinator, bytes_whole);
          choice.semi_micros =
              ctx.ShipMicros(coordinator, db, choice.key_bytes) +
              ctx.ShipMicros(db, coordinator,
                             choice.reduced_rows * est_row_bytes_of_db[db]) +
              2.0 * ctx.HopMicros(db, 0.0);
          if (choice.semi_micros < choice.whole_micros) {
            semi_of_db[db] = choice;
          }
          break;  // first matching conjunct decides — deterministic
        }
      }
      // Deterministic cost breakdown for EXPLAIN/profile output.
      auto fmt = [](double v) {
        return std::to_string(std::llround(v));
      };
      cost_text = "cost: mode=cost-based coordinator=" + coordinator;
      cost_text += coordinator == heuristic_coordinator
                       ? " (same as heuristic)\n"
                       : " (heuristic would pick " + heuristic_coordinator +
                             ")\n";
      double total = 0.0;
      double heuristic_total = 0.0;
      for (const auto& db : database_order) {
        const double bytes =
            est_rows_of_db[db] * est_row_bytes_of_db[db];
        heuristic_total +=
            ctx.ShipMicros(db, heuristic_coordinator, bytes);
        auto semi_it = semi_of_db.find(db);
        cost_text += "  sub " + db + ": est " + fmt(est_rows_of_db[db]) +
                     " row(s) x " + fmt(est_row_bytes_of_db[db]) +
                     " bytes/row -> ";
        if (semi_it == semi_of_db.end()) {
          const double us = ctx.ShipMicros(db, coordinator, bytes);
          total += us;
          cost_text += "ship-whole, est " + fmt(us) + "us\n";
        } else {
          const SemiChoice& sc = semi_it->second;
          total += sc.semi_micros;
          cost_text += "semi-join keys " + sc.provider_eff + "." +
                       sc.provider_col + " (" + fmt(sc.key_count) +
                       " key(s), est reduced " + fmt(sc.reduced_rows) +
                       " row(s)), est " + fmt(sc.semi_micros) +
                       "us (ship-whole " + fmt(sc.whole_micros) + "us)\n";
        }
      }
      cost_text += "  total est transfer " + fmt(total) +
                   "us (all-to-heuristic-coordinator " +
                   fmt(heuristic_total) + "us); pushdown " +
                   (push_down_conjuncts_ ? "on" : "off") + "\n";
    }
  }

  Decomposition out;
  out.coordinator = coordinator;
  out.cost_based = cost_based_applied;
  out.cost_text = std::move(cost_text);
  std::map<std::string, std::string> temp_of_database;
  for (const auto& db : database_order) {
    temp_of_database[db] = "mdbs_tmp_" + db;
  }

  // Build the per-database largest-possible local subqueries.
  for (const auto& db : database_order) {
    Decomposition::SubQuery sub;
    sub.database = db;
    sub.temp_table = temp_of_database[db];
    sub.select = std::make_unique<SelectStmt>();
    std::vector<ColumnDef> temp_cols;
    for (const auto& eff : tables_of_db[db]) {
      // FROM entry with the db qualifier stripped (it runs locally).
      const BoundTable& bound = binding.at(eff);
      TableRef local_ref;
      local_ref.table = bound.schema->table_name();
      if (!EqualsIgnoreCase(eff, bound.schema->table_name())) {
        local_ref.alias = eff;
      }
      sub.select->from.push_back(std::move(local_ref));
      for (const auto& col : needed[eff]) {
        SelectItem item;
        item.expr = std::make_unique<ColumnRefExpr>(eff, col);
        item.alias = eff + "__" + col;
        sub.select->items.push_back(std::move(item));
        auto idx = bound.schema->FindColumn(col);
        if (!idx.has_value()) {
          return Status::Internal("needed column vanished: " + col);
        }
        ColumnDef def = bound.schema->column(*idx);
        def.name = eff + "__" + col;
        temp_cols.push_back(std::move(def));
      }
    }
    if (sub.select->items.empty()) {
      // A table none of whose columns are needed still contributes its
      // existence (cross product cardinality): ship a constant.
      SelectItem item;
      item.expr = std::make_unique<relational::LiteralExpr>(
          relational::Value::Integer(1));
      item.alias = "one";
      sub.select->items.push_back(std::move(item));
      temp_cols.push_back(ColumnDef{"one", relational::Type::kInteger, 0});
    }
    // AND together the pushed-down conjuncts.
    ExprPtr local_where;
    for (const Expr* c : local_conjuncts[db]) {
      ExprPtr clone = c->Clone();
      local_where = local_where == nullptr
                        ? std::move(clone)
                        : std::make_unique<BinaryExpr>(
                              BinaryOp::kAnd, std::move(local_where),
                              std::move(clone));
    }
    sub.select->where = std::move(local_where);
    // Semi-join movement: rewrite this subquery to join against the key
    // table the translator will install from the coordinator's DISTINCT
    // join keys, so only matching rows ship back. The keys are exactly
    // those surviving the coordinator's own pushed-down filters, hence a
    // superset of the keys in Q''s final join — dropping non-matching
    // rows here cannot change the global result.
    auto semi_it = semi_of_db.find(db);
    if (semi_it != semi_of_db.end()) {
      const SemiChoice& sc = semi_it->second;
      sub.semi_join = true;
      sub.key_provider_db = coordinator;
      sub.key_table = "mdbs_key_" + db;
      auto key_select = std::make_unique<SelectStmt>();
      key_select->distinct = true;
      SelectItem key_item;
      key_item.expr =
          std::make_unique<ColumnRefExpr>(sc.provider_eff, sc.provider_col);
      key_item.alias = "k0";
      key_select->items.push_back(std::move(key_item));
      for (const auto& provider_eff : tables_of_db[coordinator]) {
        const BoundTable& pb = binding.at(provider_eff);
        TableRef pref;
        pref.table = pb.schema->table_name();
        if (!EqualsIgnoreCase(provider_eff, pb.schema->table_name())) {
          pref.alias = provider_eff;
        }
        key_select->from.push_back(std::move(pref));
      }
      ExprPtr key_where;
      for (const Expr* c : local_conjuncts[coordinator]) {
        ExprPtr clone = c->Clone();
        key_where = key_where == nullptr
                        ? std::move(clone)
                        : std::make_unique<BinaryExpr>(
                              BinaryOp::kAnd, std::move(key_where),
                              std::move(clone));
      }
      key_select->where = std::move(key_where);
      sub.key_select = std::move(key_select);
      const BoundTable& pb = binding.at(sc.provider_eff);
      auto pidx = pb.schema->FindColumn(sc.provider_col);
      if (!pidx.has_value()) {
        return Status::Internal("semi-join key column vanished: " +
                                sc.provider_col);
      }
      ColumnDef key_def = pb.schema->column(*pidx);
      key_def.name = "k0";
      std::vector<ColumnDef> key_cols;
      key_cols.push_back(std::move(key_def));
      MSQL_ASSIGN_OR_RETURN(
          sub.key_schema,
          TableSchema::Create(sub.key_table, std::move(key_cols)));
      TableRef key_ref;
      key_ref.table = sub.key_table;
      sub.select->from.push_back(std::move(key_ref));
      ExprPtr key_eq = std::make_unique<BinaryExpr>(
          BinaryOp::kEq,
          std::make_unique<ColumnRefExpr>(sc.target_eff, sc.target_col),
          std::make_unique<ColumnRefExpr>(sub.key_table, "k0"));
      sub.select->where =
          sub.select->where == nullptr
              ? std::move(key_eq)
              : std::make_unique<BinaryExpr>(BinaryOp::kAnd,
                                             std::move(sub.select->where),
                                             std::move(key_eq));
    }
    MSQL_ASSIGN_OR_RETURN(
        sub.temp_schema,
        TableSchema::Create(sub.temp_table, std::move(temp_cols)));
    out.subqueries.push_back(std::move(sub));
  }

  // Build the modified global query Q' over the temp tables.
  auto global = std::make_unique<SelectStmt>();
  global->distinct = stmt.distinct;
  for (const auto& db : database_order) {
    TableRef ref;
    ref.table = temp_of_database[db];
    global->from.push_back(std::move(ref));
  }
  for (const auto& item : stmt.items) {
    if (item.is_star) {
      // Expand to all shipped columns of the matching tables.
      for (const auto& [eff, bound] : binding) {
        if (!item.star_qualifier.empty() &&
            !EqualsIgnoreCase(eff, item.star_qualifier)) {
          continue;
        }
        for (const auto& col : needed[eff]) {
          SelectItem out_item;
          out_item.expr = std::make_unique<ColumnRefExpr>(
              temp_of_database[bound.database], eff + "__" + col);
          out_item.alias = col;
          global->items.push_back(std::move(out_item));
        }
      }
      continue;
    }
    SelectItem out_item = item.CloneItem();
    MSQL_RETURN_IF_ERROR(
        RewriteToTemp(out_item.expr.get(), binding, temp_of_database));
    if (out_item.alias.empty() &&
        item.expr->kind() == ExprKind::kColumnRef) {
      out_item.alias =
          static_cast<const ColumnRefExpr&>(*item.expr).name();
    }
    global->items.push_back(std::move(out_item));
  }
  ExprPtr global_where;
  for (const Expr* c : global_conjuncts) {
    ExprPtr clone = c->Clone();
    MSQL_RETURN_IF_ERROR(
        RewriteToTemp(clone.get(), binding, temp_of_database));
    global_where = global_where == nullptr
                       ? std::move(clone)
                       : std::make_unique<BinaryExpr>(BinaryOp::kAnd,
                                                      std::move(global_where),
                                                      std::move(clone));
  }
  global->where = std::move(global_where);
  for (const auto& g : stmt.group_by) {
    ExprPtr clone = g->Clone();
    MSQL_RETURN_IF_ERROR(
        RewriteToTemp(clone.get(), binding, temp_of_database));
    global->group_by.push_back(std::move(clone));
  }
  if (stmt.having != nullptr) {
    ExprPtr clone = stmt.having->Clone();
    MSQL_RETURN_IF_ERROR(
        RewriteToTemp(clone.get(), binding, temp_of_database));
    global->having = std::move(clone);
  }
  for (const auto& ob : stmt.order_by) {
    relational::OrderItem out_ob = ob.CloneItem();
    MSQL_RETURN_IF_ERROR(
        RewriteToTemp(out_ob.expr.get(), binding, temp_of_database));
    global->order_by.push_back(std::move(out_ob));
  }
  out.global_query = std::move(global);
  return out;
}

}  // namespace msql::lang
