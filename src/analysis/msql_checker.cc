#include "analysis/msql_checker.h"

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "msql/expander.h"
#include "relational/value.h"

namespace msql::analysis {

namespace {

using lang::LetBinding;
using lang::MsqlQuery;
using lang::UseEntry;
using relational::StatementKind;
using relational::TableSchema;

SourceSpan SpanOf(const std::string& name, int line, int column) {
  return SourceSpan::At(line, column, static_cast<int>(name.size()));
}

// ---------------------------------------------------------------------------
// Checker
// ---------------------------------------------------------------------------

class Checker {
 public:
  Checker(const mdbs::GlobalDataDictionary& gdd,
          const mdbs::AuxiliaryDirectory& ad)
      : gdd_(gdd), ad_(ad) {}

  void Check(const MsqlQuery& query, DiagnosticList* out);

 private:
  /// Databases of the scope that exist in the GDD (skipping unknown ones
  /// keeps a single MS101 from cascading into MS102/MS103 noise).
  std::vector<const UseEntry*> known_;

  void CheckScope(const MsqlQuery& query, DiagnosticList* out);
  void CheckLet(const MsqlQuery& query, DiagnosticList* out);
  void CheckBody(const MsqlQuery& query, DiagnosticList* out);
  void CheckComps(const MsqlQuery& query, DiagnosticList* out);
  void CheckVitalSet(const MsqlQuery& query, DiagnosticList* out);

  bool LetBoundColumn(const MsqlQuery& query, const std::string& name) const;
  const LetBinding* FindBinding(const MsqlQuery& query,
                                const std::string& name,
                                size_t component) const;
  bool Supports2pcFor(const UseEntry& entry, StatementKind kind) const;
  bool HasComp(const MsqlQuery& query, const UseEntry& entry) const;

  const mdbs::GlobalDataDictionary& gdd_;
  const mdbs::AuxiliaryDirectory& ad_;
};

void Checker::Check(const MsqlQuery& query, DiagnosticList* out) {
  known_.clear();
  CheckScope(query, out);
  CheckLet(query, out);
  if (!known_.empty()) CheckBody(query, out);
  CheckComps(query, out);
  CheckVitalSet(query, out);
}

void Checker::CheckScope(const MsqlQuery& query, DiagnosticList* out) {
  std::set<std::string> seen;
  for (const auto& entry : query.use.entries) {
    SourceSpan span = SpanOf(entry.database, entry.line, entry.column);
    if (!seen.insert(entry.EffectiveName()).second) {
      out->Add(diag::kDuplicateEffectiveName, Severity::kError, span,
               "'" + entry.EffectiveName() +
                   "' appears twice in the USE scope",
               "give the second occurrence a distinct alias: USE (" +
                   entry.database + " <alias>)");
    }
    if (!gdd_.HasDatabase(entry.database)) {
      out->Add(diag::kUnknownDatabase, Severity::kError, span,
               "database '" + entry.database +
                   "' is not in the GDD (IMPORT it first)");
      continue;
    }
    const mdbs::GddDatabase* db = gdd_.GetDatabase(entry.database).value();
    if (!ad_.HasService(db->service)) {
      out->Add(diag::kServiceNotIncorporated, Severity::kError, span,
               "database '" + entry.database + "' is served by '" +
                   db->service +
                   "', which is not incorporated in the AD",
               "INCORPORATE SERVICE " + db->service + " first");
      continue;
    }
    known_.push_back(&entry);
  }
}

void Checker::CheckLet(const MsqlQuery& query, DiagnosticList* out) {
  if (!query.let.has_value()) return;
  const size_t scope_size = query.use.entries.size();
  for (const auto& binding : query.let->bindings) {
    SourceSpan span =
        binding.variable_path.empty()
            ? SourceSpan::At(binding.line, binding.column)
            : SpanOf(binding.variable_path[0], binding.line, binding.column);
    if (binding.targets.size() != scope_size) {
      out->Add(diag::kLetArityMismatch, Severity::kError, span,
               "LET " + Join(binding.variable_path, ".") + " provides " +
                   std::to_string(binding.targets.size()) +
                   " targets for " + std::to_string(scope_size) +
                   " scope databases",
               "LET targets bind positionally: give one per USE entry");
      continue;
    }
    // Per-database resolution of the positional targets. The table
    // component missing makes the database non-pertinent (a warning per
    // database, an error when that happens everywhere: the variable
    // dangles).
    size_t resolved_tables = 0;
    size_t table_sites = 0;
    std::vector<size_t> resolved_cols(binding.variable_path.size(), 0);
    std::vector<size_t> col_sites(binding.variable_path.size(), 0);
    // Distinct local types seen per column component (for MS104).
    std::vector<std::map<relational::Type, std::string>> types(
        binding.variable_path.size());
    for (size_t i = 0; i < query.use.entries.size(); ++i) {
      const UseEntry& entry = query.use.entries[i];
      if (!gdd_.HasDatabase(entry.database)) continue;
      const auto& target = binding.targets[i];
      const std::string& table = target[0];
      ++table_sites;
      if (!gdd_.HasTable(entry.database, table)) {
        out->Add(diag::kLetTargetMissing, Severity::kWarning,
                 SpanOf(binding.variable_path[0], binding.line,
                        binding.column),
                 "LET target table '" + table + "' does not exist in '" +
                     entry.database +
                     "'; the database is non-pertinent for this binding");
        continue;
      }
      ++resolved_tables;
      const TableSchema* schema =
          gdd_.GetTable(entry.database, table).value();
      for (size_t c = 1; c < binding.variable_path.size(); ++c) {
        const std::string& column = target[c];
        ++col_sites[c];
        std::optional<size_t> idx = schema->FindColumn(column);
        if (!idx.has_value()) {
          out->Add(diag::kLetTargetMissing, Severity::kWarning, span,
                   "LET target column '" + column + "' does not exist in '" +
                       entry.database + "." + table + "'");
          continue;
        }
        ++resolved_cols[c];
        types[c].emplace(schema->columns()[*idx].type,
                         entry.database + "." + table + "." + column);
      }
    }
    if (table_sites > 0 && resolved_tables == 0) {
      out->Add(diag::kUnknownTable, Severity::kError, span,
               "LET variable '" + binding.variable_path[0] +
                   "' resolves in no scope database: every target table "
                   "is missing");
    }
    for (size_t c = 1; c < binding.variable_path.size(); ++c) {
      if (col_sites[c] > 0 && resolved_tables > 0 && resolved_cols[c] == 0) {
        out->Add(diag::kUnknownColumn, Severity::kError, span,
                 "LET variable '" + binding.variable_path[c] +
                     "' resolves in no scope database: every target "
                     "column is missing");
      }
      if (types[c].size() > 1) {
        std::string detail;
        for (const auto& [type, site] : types[c]) {
          if (!detail.empty()) detail += ", ";
          detail += site + ":" + std::string(relational::TypeName(type));
        }
        out->Add(diag::kLetTypeMismatch, Severity::kWarning, span,
                 "LET variable '" + binding.variable_path[c] +
                     "' binds columns of incompatible types (" + detail +
                     ")",
                 "comparisons and arithmetic over this variable may "
                 "behave differently per database");
      }
    }
  }
}

bool Checker::LetBoundColumn(const MsqlQuery& query,
                             const std::string& name) const {
  if (!query.let.has_value()) return false;
  for (const auto& binding : query.let->bindings) {
    for (size_t c = 1; c < binding.variable_path.size(); ++c) {
      if (binding.variable_path[c] == name) return true;
    }
  }
  return false;
}

const LetBinding* Checker::FindBinding(const MsqlQuery& query,
                                       const std::string& name,
                                       size_t component) const {
  if (!query.let.has_value()) return nullptr;
  for (const auto& binding : query.let->bindings) {
    if (component < binding.variable_path.size() &&
        binding.variable_path[component] == name) {
      return &binding;
    }
  }
  return nullptr;
}

void Checker::CheckBody(const MsqlQuery& query, DiagnosticList* out) {
  lang::NameInventory inv;
  if (!lang::CollectIdentifiers(*query.body, &inv)) return;  // DDL

  // Resolve body tables per known database → the candidate local tables
  // columns are checked against.
  std::map<std::string, std::vector<const TableSchema*>> local_tables;
  for (const auto& [name, table] : inv.tables) {
    // A db-qualified reference names one database directly; the expander
    // matches it against the scope, so only unqualified ones are checked.
    if (!table.unqualified) continue;
    const SourceSpan span = SpanOf(name, table.line, table.column);
    size_t hits = 0;
    for (const UseEntry* entry : known_) {
      const std::string& db = entry->database;
      std::vector<std::string> resolved;
      const LetBinding* binding = FindBinding(query, name, 0);
      if (binding != nullptr) {
        // Positional target for this entry (arity already checked).
        size_t index =
            static_cast<size_t>(entry - query.use.entries.data());
        if (index < binding->targets.size()) {
          const std::string& t = binding->targets[index][0];
          if (gdd_.HasTable(db, t)) resolved.push_back(t);
        }
      } else if (HasWildcard(name)) {
        auto matches = gdd_.MatchTables(db, name);
        if (matches.ok()) resolved = std::move(matches).value();
      } else if (gdd_.HasTable(db, name)) {
        resolved.push_back(name);
      }
      if (!resolved.empty()) ++hits;
      for (const auto& t : resolved) {
        local_tables[entry->EffectiveName()].push_back(
            gdd_.GetTable(db, t).value());
      }
    }
    if (hits > 0) continue;
    if (FindBinding(query, name, 0) != nullptr) continue;  // CheckLet's job
    if (HasWildcard(name)) {
      out->Add(diag::kEmptyWildcard, Severity::kError, span,
               "implicit variable '" + name +
                   "' matches no table in any scope database");
    } else {
      out->Add(diag::kUnknownTable, Severity::kError, span,
               "table '" + name + "' resolves in no scope database");
    }
  }

  for (const auto& [name, column] : inv.columns) {
    if (LetBoundColumn(query, name)) continue;  // reported by CheckLet
    const SourceSpan span = SpanOf(name, column.line, column.column);
    // Databases (by effective name) where the column resolves against
    // some candidate table.
    size_t present = 0;
    size_t candidates = 0;
    for (const UseEntry* entry : known_) {
      auto it = local_tables.find(entry->EffectiveName());
      if (it == local_tables.end()) continue;
      ++candidates;
      bool found = false;
      for (const TableSchema* schema : it->second) {
        if (HasWildcard(name) ? !schema->MatchColumns(name).empty()
                              : schema->HasColumn(name)) {
          found = true;
          break;
        }
      }
      if (found) ++present;
    }
    if (candidates == 0) continue;  // table errors already reported
    if (present == 0) {
      if (HasWildcard(name)) {
        out->Add(diag::kEmptyWildcard, Severity::kError, span,
                 "implicit variable '" + name +
                     "' matches no column in any scope database");
      } else if (column.optional) {
        out->Add(diag::kOptionalNowhere, Severity::kWarning, span,
                 "optional column '~" + name +
                     "' exists in no scope database and is always "
                     "dropped",
                 "remove it, or check the spelling");
      } else {
        out->Add(diag::kUnknownColumn, Severity::kError, span,
                 "column '" + name + "' resolves in no scope database");
      }
    } else if (column.optional && present == candidates && candidates > 1) {
      out->Add(diag::kOptionalEverywhere, Severity::kWarning, span,
               "optional column '~" + name +
                   "' exists in every scope database; the '~' marker is "
                   "redundant");
    }
  }
}

void Checker::CheckComps(const MsqlQuery& query, DiagnosticList* out) {
  for (const auto& comp : query.comps) {
    SourceSpan span = SpanOf(comp.database, comp.line, comp.column);
    const UseEntry* match = nullptr;
    for (const auto& entry : query.use.entries) {
      if (EqualsIgnoreCase(entry.EffectiveName(), comp.database) ||
          EqualsIgnoreCase(entry.database, comp.database)) {
        match = &entry;
        break;
      }
    }
    if (match == nullptr) {
      out->Add(diag::kCompUnknownDatabase, Severity::kError, span,
               "COMP clause names '" + comp.database +
                   "', which is not in the USE scope");
      continue;
    }
    if (!match->vital) {
      out->Add(diag::kCompOnNonVital, Severity::kWarning, span,
               "COMP clause names NON-VITAL database '" + comp.database +
                   "'; its failure never triggers global rollback, so "
                   "the compensation can only run unnecessarily",
               "mark the database VITAL or drop the COMP clause");
    }
  }
}

bool Checker::Supports2pcFor(const UseEntry& entry,
                             StatementKind kind) const {
  auto db = gdd_.GetDatabase(entry.database);
  if (!db.ok()) return true;  // unknown database reported elsewhere
  auto service = ad_.GetService((*db)->service);
  if (!service.ok()) return true;
  return (*service)->Supports2pcFor(kind);
}

bool Checker::HasComp(const MsqlQuery& query, const UseEntry& entry) const {
  for (const auto& comp : query.comps) {
    if (EqualsIgnoreCase(entry.EffectiveName(), comp.database) ||
        EqualsIgnoreCase(entry.database, comp.database)) {
      return true;
    }
  }
  return false;
}

void Checker::CheckVitalSet(const MsqlQuery& query, DiagnosticList* out) {
  if (query.body->kind() == StatementKind::kSelect) return;  // retrieval
  // Mirrors Translator::Resolve: a VITAL database that neither supports
  // 2PC for this verb nor has a COMP clause must run as the last
  // resource, and only one task can run last (DESIGN.md §5).
  std::vector<const UseEntry*> last_resource;
  for (const UseEntry* entry : known_) {
    if (!entry->vital) continue;
    if (Supports2pcFor(*entry, query.body->kind())) continue;
    if (HasComp(query, *entry)) continue;
    last_resource.push_back(entry);
  }
  if (last_resource.size() < 2) return;
  std::string names;
  for (const UseEntry* entry : last_resource) {
    if (!names.empty()) names += ", ";
    names += entry->EffectiveName();
  }
  const UseEntry* second = last_resource[1];
  out->Add(diag::kVitalSetUnenforceable, Severity::kError,
           SpanOf(second->database, second->line, second->column),
           "vital set is not enforceable: databases {" + names +
               "} neither support 2PC nor provide COMP clauses; failure "
               "atomicity with respect to the vital set cannot be "
               "guaranteed",
           "add COMP clauses, or mark all but one of them NON-VITAL");
}

}  // namespace

DiagnosticList CheckQuery(const MsqlQuery& query,
                          const mdbs::GlobalDataDictionary& gdd,
                          const mdbs::AuxiliaryDirectory& ad) {
  DiagnosticList out;
  Checker(gdd, ad).Check(query, &out);
  return out;
}

}  // namespace msql::analysis
