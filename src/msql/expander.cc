#include "msql/expander.h"

#include <algorithm>

#include "analysis/diagnostics.h"
#include "common/string_util.h"

namespace msql::lang {

namespace {

/// Renders a span-carrying expander error in the diagnostics format so
/// messages point at the offending token (satellite of DESIGN.md §8).
Status ExpansionError(std::string_view code, int line, int column,
                      int length, std::string message,
                      std::string fix_hint = "") {
  analysis::Diagnostic d;
  d.code = std::string(code);
  d.severity = analysis::Severity::kError;
  d.span = analysis::SourceSpan::At(line, column, length);
  d.message = std::move(message);
  d.fix_hint = std::move(fix_hint);
  return Status::InvalidArgument(d.Render());
}

}  // namespace

using relational::ColumnRefExpr;
using relational::Expr;
using relational::ExprKind;
using relational::SelectStmt;
using relational::Statement;
using relational::StatementKind;
using relational::StatementPtr;

namespace {

// ---------------------------------------------------------------------------
// Identifier collection
// ---------------------------------------------------------------------------

void NoteTable(const relational::TableRef& ref, NameInventory* inv) {
  NameInventory::Name& name = inv->tables[ref.table];
  if (!ref.database.empty()) {
    inv->databases.insert(ref.database);
    return;
  }
  if (!name.unqualified) {
    name.unqualified = true;
    name.line = ref.line;
    name.column = ref.column;
  }
}

void NoteColumn(const std::string& written, bool optional, int line,
                int column, NameInventory* inv) {
  NameInventory::Name& name = inv->columns[written];
  name.optional = name.optional && optional;
  if (name.line == 0) {
    name.line = line;
    name.column = column;
  }
}

void CollectSelect(const SelectStmt& stmt, NameInventory* inv);

void CollectExpr(const Expr& e, NameInventory* inv) {
  if (e.kind() == ExprKind::kColumnRef) {
    const auto& ref = static_cast<const ColumnRefExpr&>(e);
    NoteColumn(ref.name(), ref.optional_column(), ref.line(), ref.column(),
               inv);
    return;
  }
  if (e.kind() == ExprKind::kScalarSubquery) {
    CollectSelect(
        static_cast<const relational::ScalarSubqueryExpr&>(e).select(), inv);
    return;
  }
  relational::ForEachChild(
      e, [inv](const Expr& child) { CollectExpr(child, inv); });
}

void CollectSelect(const SelectStmt& stmt, NameInventory* inv) {
  for (const auto& ref : stmt.from) NoteTable(ref, inv);
  relational::ForEachClause(stmt,
                            [inv](const Expr& e) { CollectExpr(e, inv); });
}

// ---------------------------------------------------------------------------
// Rewriting
// ---------------------------------------------------------------------------

using NameMap = std::map<std::string, std::string>;

Status RewriteExpr(Expr* e, const NameMap& table_map,
                   const NameMap& column_map);

Status RewriteSelect(SelectStmt* stmt, const NameMap& table_map,
                     const NameMap& column_map) {
  for (auto& ref : stmt->from) {
    auto it = table_map.find(ref.table);
    if (it != table_map.end()) ref.table = it->second;
  }
  // Select items: a dropped optional column removes its item, and a
  // substituted one keeps its written name as output alias.
  std::vector<relational::SelectItem> kept;
  for (auto& item : stmt->items) {
    if (item.expr != nullptr &&
        item.expr->kind() == ExprKind::kColumnRef) {
      const auto& ref = static_cast<const ColumnRefExpr&>(*item.expr);
      auto col_it = column_map.find(ref.name());
      if (col_it != column_map.end()) {
        if (col_it->second.empty()) continue;  // dropped optional column
        if (item.alias.empty()) item.alias = SemanticAlias(ref.name());
      }
    }
    kept.push_back(std::move(item));
  }
  if (kept.empty() && !stmt->items.empty()) {
    return Status::InvalidArgument(
        "all select items were dropped as optional columns");
  }
  stmt->items = std::move(kept);
  Status status;
  relational::ForEachClause(*stmt, [&](Expr& e) {
    if (status.ok()) status = RewriteExpr(&e, table_map, column_map);
  });
  return status;
}

Status RewriteExpr(Expr* e, const NameMap& table_map,
                   const NameMap& column_map) {
  if (e->kind() == ExprKind::kColumnRef) {
    auto* ref = static_cast<ColumnRefExpr*>(e);
    auto it = column_map.find(ref->name());
    if (it != column_map.end()) {
      if (it->second.empty()) {
        return Status::InvalidArgument(
            "optional column '" + ref->name() +
            "' does not resolve and is used outside the select list");
      }
      ref->set_name(it->second);
    }
    ref->clear_optional();
    auto q_it = table_map.find(ref->qualifier());
    if (q_it != table_map.end()) ref->set_qualifier(q_it->second);
    return Status::OK();
  }
  if (e->kind() == ExprKind::kScalarSubquery) {
    return RewriteSelect(
        static_cast<relational::ScalarSubqueryExpr*>(e)->mutable_select(),
        table_map, column_map);
  }
  Status status;
  relational::ForEachChild(*e, [&](Expr& child) {
    if (status.ok()) status = RewriteExpr(&child, table_map, column_map);
  });
  return status;
}

/// Cartesian-product iterator over per-name candidate lists.
class ComboIterator {
 public:
  explicit ComboIterator(
      const std::vector<std::pair<std::string, std::vector<std::string>>>&
          candidates)
      : candidates_(candidates), indices_(candidates.size(), 0) {
    for (const auto& [name, cands] : candidates_) {
      if (cands.empty()) exhausted_ = true;
    }
  }

  bool exhausted() const { return exhausted_; }

  NameMap Current() const {
    NameMap map;
    for (size_t i = 0; i < candidates_.size(); ++i) {
      map[candidates_[i].first] = candidates_[i].second[indices_[i]];
    }
    return map;
  }

  void Advance() {
    size_t level = candidates_.size();
    while (level > 0) {
      --level;
      if (++indices_[level] < candidates_[level].second.size()) return;
      indices_[level] = 0;
      if (level == 0) exhausted_ = true;
    }
    if (candidates_.empty()) exhausted_ = true;
  }

 private:
  const std::vector<std::pair<std::string, std::vector<std::string>>>&
      candidates_;
  std::vector<size_t> indices_;
  bool exhausted_ = false;
};

}  // namespace

std::string SemanticAlias(const std::string& written_name) {
  if (!HasWildcard(written_name)) return written_name;
  std::string out;
  for (char c : written_name) {
    if (c != '%') out += c;
  }
  return out.empty() ? "col" : out;
}

bool CollectIdentifiers(const Statement& stmt, NameInventory* inventory) {
  switch (stmt.kind()) {
    case StatementKind::kSelect:
      CollectSelect(static_cast<const SelectStmt&>(stmt), inventory);
      return true;
    case StatementKind::kInsert: {
      const auto& ins = static_cast<const relational::InsertStmt&>(stmt);
      NoteTable(ins.table, inventory);
      for (const auto& col : ins.columns) {
        NoteColumn(col, false, 0, 0, inventory);
      }
      for (const auto& row : ins.values_rows) {
        for (const auto& e : row) CollectExpr(*e, inventory);
      }
      if (ins.select_source != nullptr) {
        CollectSelect(*ins.select_source, inventory);
      }
      return true;
    }
    case StatementKind::kUpdate: {
      const auto& upd = static_cast<const relational::UpdateStmt&>(stmt);
      NoteTable(upd.table, inventory);
      for (const auto& a : upd.assignments) {
        NoteColumn(a.column, false, 0, 0, inventory);
        CollectExpr(*a.value, inventory);
      }
      if (upd.where != nullptr) CollectExpr(*upd.where, inventory);
      return true;
    }
    case StatementKind::kDelete: {
      const auto& del = static_cast<const relational::DeleteStmt&>(stmt);
      NoteTable(del.table, inventory);
      if (del.where != nullptr) CollectExpr(*del.where, inventory);
      return true;
    }
    default:
      return false;
  }
}

Status RewriteIdentifiers(Statement* stmt, const NameMap& table_map,
                          const NameMap& column_map) {
  switch (stmt->kind()) {
    case StatementKind::kSelect:
      return RewriteSelect(static_cast<SelectStmt*>(stmt), table_map,
                           column_map);
    case StatementKind::kInsert: {
      auto* ins = static_cast<relational::InsertStmt*>(stmt);
      auto it = table_map.find(ins->table.table);
      if (it != table_map.end()) ins->table.table = it->second;
      for (auto& col : ins->columns) {
        auto col_it = column_map.find(col);
        if (col_it != column_map.end()) {
          if (col_it->second.empty()) {
            return Status::InvalidArgument(
                "optional column '" + col + "' cannot be an INSERT target");
          }
          col = col_it->second;
        }
      }
      for (auto& row : ins->values_rows) {
        for (auto& e : row) {
          MSQL_RETURN_IF_ERROR(RewriteExpr(e.get(), table_map, column_map));
        }
      }
      if (ins->select_source != nullptr) {
        MSQL_RETURN_IF_ERROR(RewriteSelect(ins->select_source.get(),
                                           table_map, column_map));
      }
      return Status::OK();
    }
    case StatementKind::kUpdate: {
      auto* upd = static_cast<relational::UpdateStmt*>(stmt);
      auto it = table_map.find(upd->table.table);
      if (it != table_map.end()) upd->table.table = it->second;
      for (auto& a : upd->assignments) {
        auto col_it = column_map.find(a.column);
        if (col_it != column_map.end()) {
          if (col_it->second.empty()) {
            return Status::InvalidArgument(
                "optional column '" + a.column +
                "' cannot be an UPDATE target");
          }
          a.column = col_it->second;
        }
        MSQL_RETURN_IF_ERROR(
            RewriteExpr(a.value.get(), table_map, column_map));
      }
      if (upd->where != nullptr) {
        MSQL_RETURN_IF_ERROR(
            RewriteExpr(upd->where.get(), table_map, column_map));
      }
      return Status::OK();
    }
    case StatementKind::kDelete: {
      auto* del = static_cast<relational::DeleteStmt*>(stmt);
      auto it = table_map.find(del->table.table);
      if (it != table_map.end()) del->table.table = it->second;
      if (del->where != nullptr) {
        MSQL_RETURN_IF_ERROR(
            RewriteExpr(del->where.get(), table_map, column_map));
      }
      return Status::OK();
    }
    default:
      return Status::OK();
  }
}

Result<ExpansionResult> Expander::Expand(const MsqlQuery& query) const {
  ExpansionResult out;
  const auto& entries = query.use.entries;
  if (entries.empty()) {
    return Status::InvalidArgument(
        "query has an empty scope (no USE databases resolved)");
  }
  // Scope databases must be unique by effective name.
  {
    std::set<std::string> seen;
    for (const auto& e : entries) {
      if (!seen.insert(e.EffectiveName()).second) {
        return ExpansionError(
            analysis::diag::kDuplicateEffectiveName, e.line, e.column,
            static_cast<int>(e.database.size()),
            "database or alias '" + e.EffectiveName() +
                "' appears twice in the USE scope",
            "give the second occurrence a distinct alias");
      }
    }
  }
  // LET targets must align with the scope.
  if (query.let.has_value()) {
    for (const auto& binding : query.let->bindings) {
      if (binding.targets.size() != entries.size()) {
        return ExpansionError(
            analysis::diag::kLetArityMismatch, binding.line, binding.column,
            static_cast<int>(binding.variable_path.empty()
                                 ? 1
                                 : binding.variable_path[0].size()),
            "LET " + Join(binding.variable_path, ".") + " provides " +
                std::to_string(binding.targets.size()) + " targets for " +
                std::to_string(entries.size()) + " scope databases",
            "LET targets bind positionally: give one per USE entry");
      }
    }
  }

  NameInventory inventory;
  CollectIdentifiers(*query.body, &inventory);

  for (size_t i = 0; i < entries.size(); ++i) {
    MSQL_ASSIGN_OR_RETURN(StatementPtr stmt,
                          ExpandForDatabase(query, i, inventory));
    if (stmt == nullptr) {
      out.non_pertinent.push_back(entries[i].EffectiveName());
      continue;
    }
    ElementaryQuery eq;
    eq.database = entries[i].database;
    eq.effective_name = entries[i].EffectiveName();
    eq.vital = entries[i].vital;
    eq.statement = std::move(stmt);
    out.queries.push_back(std::move(eq));
  }

  // Attach compensating actions.
  for (const auto& comp : query.comps) {
    bool attached = false;
    for (auto& eq : out.queries) {
      if (EqualsIgnoreCase(eq.effective_name, comp.database) ||
          EqualsIgnoreCase(eq.database, comp.database)) {
        eq.compensation = comp.action->Clone();
        attached = true;
        break;
      }
    }
    if (!attached) {
      return ExpansionError(
          analysis::diag::kCompUnknownDatabase, comp.line, comp.column,
          static_cast<int>(comp.database.size()),
          "COMP clause names '" + comp.database +
              "', which has no subquery in this multiple query");
    }
  }
  return out;
}

Result<StatementPtr> Expander::ExpandForDatabase(
    const MsqlQuery& query, size_t entry_index,
    const NameInventory& inventory) const {
  const UseEntry& entry = query.use.entries[entry_index];
  const std::string& db = entry.database;
  if (!gdd_->HasDatabase(db)) {
    analysis::Diagnostic d;
    d.code = std::string(analysis::diag::kUnknownDatabase);
    d.severity = analysis::Severity::kError;
    d.span = analysis::SourceSpan::At(entry.line, entry.column,
                                      static_cast<int>(db.size()));
    d.message = "database '" + db + "' is not in the GDD (IMPORT it first)";
    return Status::NotFound(d.Render());
  }

  // DDL bodies are replicated verbatim (multidatabase table definition).
  if (query.body->kind() == StatementKind::kCreateTable) {
    return query.body->Clone();
  }
  if (query.body->kind() == StatementKind::kDropTable) {
    const auto& drop =
        static_cast<const relational::DropTableStmt&>(*query.body);
    if (!gdd_->HasTable(db, drop.table.table)) return StatementPtr(nullptr);
    return query.body->Clone();
  }

  // A database-prefixed table names that database alone.
  for (const auto& prefix : inventory.databases) {
    if (!EqualsIgnoreCase(prefix, db)) return StatementPtr(nullptr);
  }

  // LET maps for this database.
  NameMap table_let;
  NameMap column_let;
  if (query.let.has_value()) {
    for (const auto& binding : query.let->bindings) {
      const auto& target = binding.targets[entry_index];
      for (size_t c = 0; c < binding.variable_path.size(); ++c) {
        NameMap& map = (c == 0) ? table_let : column_let;
        const std::string& var = binding.variable_path[c];
        auto [it, inserted] = map.emplace(var, target[c]);
        if (!inserted && it->second != target[c]) {
          return Status::InvalidArgument(
              "semantic variable '" + var +
              "' is bound twice with different targets");
        }
      }
    }
  }

  // Table candidates.
  std::vector<std::pair<std::string, std::vector<std::string>>> table_cands;
  for (const auto& [t, name] : inventory.tables) {
    std::vector<std::string> cands;
    auto let_it = table_let.find(t);
    if (let_it != table_let.end()) {
      if (gdd_->HasTable(db, let_it->second)) cands.push_back(let_it->second);
    } else if (HasWildcard(t)) {
      MSQL_ASSIGN_OR_RETURN(cands, gdd_->MatchTables(db, t));
    } else if (gdd_->HasTable(db, t)) {
      cands.push_back(t);
    }
    if (cands.empty()) return StatementPtr(nullptr);  // non-pertinent
    table_cands.emplace_back(t, std::move(cands));
  }

  std::vector<StatementPtr> pertinent;
  std::set<std::string> pertinent_sql;  // dedupe identical rewrites

  for (ComboIterator tables_it(table_cands); !tables_it.exhausted();
       tables_it.Advance()) {
    NameMap table_map = tables_it.Current();
    // The set of local tables this combination reads/writes.
    std::vector<const relational::TableSchema*> local_tables;
    for (const auto& [written, local] : table_map) {
      MSQL_ASSIGN_OR_RETURN(const relational::TableSchema* schema,
                            gdd_->GetTable(db, local));
      local_tables.push_back(schema);
    }

    auto column_exists = [&](const std::string& name) {
      for (const auto* schema : local_tables) {
        if (schema->HasColumn(name)) return true;
      }
      return false;
    };

    // Column candidates under this table combination.
    std::vector<std::pair<std::string, std::vector<std::string>>> col_cands;
    bool combo_dead = false;
    for (const auto& [name, column] : inventory.columns) {
      std::vector<std::string> cands;
      auto let_it = column_let.find(name);
      if (let_it != column_let.end()) {
        if (column_exists(let_it->second)) cands.push_back(let_it->second);
      } else if (HasWildcard(name)) {
        std::set<std::string> uniq;
        for (const auto* schema : local_tables) {
          for (const auto& m : schema->MatchColumns(name)) uniq.insert(m);
        }
        cands.assign(uniq.begin(), uniq.end());
      } else if (column_exists(name)) {
        cands.push_back(name);
      }
      if (cands.empty()) {
        if (column.optional) {
          cands.push_back("");  // dropped optional column
        } else {
          combo_dead = true;
          break;
        }
      }
      col_cands.emplace_back(name, std::move(cands));
    }
    if (combo_dead) continue;

    for (ComboIterator cols_it(col_cands); !cols_it.exhausted();
         cols_it.Advance()) {
      NameMap column_map = cols_it.Current();
      StatementPtr candidate = query.body->Clone();
      Status rewritten =
          RewriteIdentifiers(candidate.get(), table_map, column_map);
      if (!rewritten.ok()) continue;  // substitution not pertinent
      std::string sql = candidate->ToSql();
      if (pertinent_sql.insert(sql).second) {
        pertinent.push_back(std::move(candidate));
      }
    }
  }

  if (pertinent.empty()) return StatementPtr(nullptr);
  if (pertinent.size() > 1) {
    std::string alternatives;
    for (const auto& p : pertinent) alternatives += "\n  " + p->ToSql();
    return Status::InvalidArgument(
        "multiple query is ambiguous on database '" + db + "' — " +
        std::to_string(pertinent.size()) +
        " pertinent substitutions remain after disambiguation:" +
        alternatives);
  }
  return std::move(pertinent[0]);
}

}  // namespace msql::lang
