#ifndef MSQL_MSQL_EXPANDER_H_
#define MSQL_MSQL_EXPANDER_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "mdbs/global_data_dictionary.h"
#include "msql/ast.h"

namespace msql::lang {

/// One per-database elementary query produced by multiple-identifier
/// substitution: plain SQL executable by that database's LDBMS.
struct ElementaryQuery {
  std::string database;        // real database name
  std::string effective_name;  // alias if the USE entry has one
  bool vital = false;
  relational::StatementPtr statement;
  /// The compensating action bound to this database, if any.
  relational::StatementPtr compensation;

  ElementaryQuery() = default;
  ElementaryQuery(const ElementaryQuery&) = delete;
  ElementaryQuery& operator=(const ElementaryQuery&) = delete;
  ElementaryQuery(ElementaryQuery&&) noexcept = default;
  ElementaryQuery& operator=(ElementaryQuery&&) noexcept = default;
};

/// Result of expanding one multiple query.
struct ExpansionResult {
  std::vector<ElementaryQuery> queries;
  /// Scope databases discarded during disambiguation (no pertinent
  /// substitution existed).
  std::vector<std::string> non_pertinent;
};

/// The identifiers one statement body names, by written name.
struct NameInventory {
  struct Name {
    /// 1-based source position of the first occurrence that has one; 0
    /// when none has (INSERT column lists and SET targets carry none).
    /// For a table, only references without a database prefix count.
    int line = 0;
    int column = 0;
    /// Columns: true if *every* occurrence carries '~'.
    bool optional = true;
    /// Tables: true if some reference has no database prefix.
    bool unqualified = false;
  };
  std::map<std::string, Name> tables;
  std::map<std::string, Name> columns;
  /// Database prefixes of table references (`delta.flight`). Such a
  /// reference names one database, so a scope database is pertinent
  /// only if every prefix names it.
  std::set<std::string> databases;
};

/// Expands MSQL multiple queries into elementary per-database queries
/// (§4.3 phases: multiple identifier substitution + disambiguation).
///
/// For each database of the USE scope, every multiple identifier is
/// given its candidate substitutions — LET targets for explicit semantic
/// variables, GDD wildcard matches for implicit ones ('%'), the literal
/// name otherwise — and the cartesian product of candidates is filtered
/// to the substitutions under which the query is *pertinent* (all tables
/// and all non-optional columns resolve). Optional columns ('~') that do
/// not resolve are dropped from that database's select list. A table
/// with a database prefix (`delta.flight`) names that database only, so
/// a scope database some prefix does not name is not pertinent. Exactly
/// one pertinent substitution may remain per database (the paper assumes
/// at most one subquery per database); several is an ambiguity error,
/// zero discards the database.
class Expander {
 public:
  explicit Expander(const mdbs::GlobalDataDictionary* gdd) : gdd_(gdd) {}

  /// Expands `query`. The USE scope must already be resolved (no
  /// `current` indirection left) and every scope database known to the
  /// GDD. COMP clauses are attached to their elementary queries.
  Result<ExpansionResult> Expand(const MsqlQuery& query) const;

 private:
  /// Produces the (at most one) pertinent elementary statement of
  /// `query.body` for scope entry `entry_index`; nullptr when the
  /// database is not pertinent.
  Result<relational::StatementPtr> ExpandForDatabase(
      const MsqlQuery& query, size_t entry_index,
      const NameInventory& inventory) const;

  const mdbs::GlobalDataDictionary* gdd_;
};

/// Collects the table and column names of `stmt` at every depth
/// (subqueries included), for multiple-identifier substitution and the
/// MS1xx checker alike. Returns false, collecting nothing, for DDL and
/// transaction control, whose names are replicated verbatim.
bool CollectIdentifiers(const relational::Statement& stmt,
                        NameInventory* inventory);

/// Rewrites `stmt` in place under the given table/column name maps.
/// Unmapped names are left untouched. A column mapped to "" (dropped
/// optional) is removed from select lists; its use anywhere else is an
/// error. Select items that are rewritten column refs get their written
/// semantic name as output alias so multitable columns align.
Status RewriteIdentifiers(
    relational::Statement* stmt,
    const std::map<std::string, std::string>& table_map,
    const std::map<std::string, std::string>& column_map);

/// Output alias for a semantic identifier: LET variables keep their
/// name, '%' wildcards are stripped of '%' ("%code" → "code",
/// "flight%" → "flight", bare "%" → "col").
std::string SemanticAlias(const std::string& written_name);

}  // namespace msql::lang

#endif  // MSQL_MSQL_EXPANDER_H_
