#ifndef MSQL_RELATIONAL_PLANNER_H_
#define MSQL_RELATIONAL_PLANNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/schema.h"
#include "relational/sql/ast.h"
#include "relational/value.h"

namespace msql::relational {

class Index;
class Table;

/// One FROM source as the planner sees it: name, shape, size and (for
/// base tables) index access. Views pass a null `table` — they are
/// materialized before planning, so `row_count` is exact but no index
/// paths exist.
struct PlannerSource {
  std::string effective_name;  // lower-cased alias-or-table name
  const TableSchema* schema = nullptr;
  size_t row_count = 0;
  const Table* table = nullptr;  // null for views
};

/// A single-source conjunct evaluated on that source's rows before the
/// join. Expression pointers borrow from the statement's WHERE tree and
/// are only valid while the statement outlives the plan.
struct PushedFilter {
  size_t source = 0;
  const Expr* conjunct = nullptr;
};

/// Index access path chosen for one source: fetch only the rows whose
/// indexed column equals `key` instead of scanning. The probe conjunct
/// is consumed — index lookup and predicate agree on Value::Compare
/// equality, so re-evaluating it would be redundant.
struct PlannedProbe {
  size_t source = 0;
  const Index* index = nullptr;
  std::string index_name;
  std::string column;
  Value key;
  const Expr* conjunct = nullptr;
};

/// One step of the join pipeline: bring `source` into the joined prefix.
/// With equi-keys the step is a build/probe hash join (build side = the
/// new source); without, a nested-loop cross step. `residual` holds the
/// conjuncts first decidable at this step (all referenced sources now
/// joined) that did not become hash keys.
struct JoinStep {
  size_t source = 0;
  struct EquiKey {
    size_t prefix_pos = 0;  // combined-row position on the joined side
    size_t source_pos = 0;  // combined-row position on the new source
    const Expr* conjunct = nullptr;
  };
  std::vector<EquiKey> keys;
  std::vector<const Expr*> residual;
  double estimated_rows = 0.0;  // of this source, after pushed filters
};

/// Physical plan for one SELECT, or for the row selection of one UPDATE
/// or DELETE: per-source access paths and filters, a join order, and the
/// leftover predicate. All Expr pointers borrow from the planned
/// statement.
struct SelectPlan {
  std::vector<std::string> source_names;
  std::vector<size_t> source_offsets;  // combined-row offset per source
  std::vector<size_t> source_widths;
  std::vector<double> estimated_rows;  // per source, after pushed filters

  std::vector<PushedFilter> filters;
  std::vector<PlannedProbe> probes;  // at most one per source
  std::vector<JoinStep> steps;       // steps[0] seeds the pipeline
  /// Conjuncts only decidable on the fully joined row: scalar
  /// subqueries, constant conjuncts, or — when the WHERE names an
  /// unknown or ambiguous column — the whole unsplit WHERE. Evaluated
  /// with the statement's full binding, in FROM-major row order.
  std::vector<const Expr*> final_residual;

  int64_t pushed_conjuncts = 0;
  int64_t equi_conjuncts = 0;

  size_t num_sources() const { return source_names.size(); }
  const PlannedProbe* ProbeFor(size_t source) const;

  /// Deterministic human-readable rendering (the `\plan` / EXPLAIN
  /// text). Stable across runs for golden tests.
  std::string Explain() const;
};

/// Plans `SELECT * FROM sources WHERE where` (a null `where` keeps
/// every row): splits the WHERE into top-level AND conjuncts, pushes
/// single-source conjuncts below the join, selects per-source index
/// probes from pushed `col = literal` conjuncts, turns two-source
/// `a.x = b.y` conjuncts into hash-join keys, and orders joins greedily
/// by estimated cardinality (smallest estimated source first, preferring
/// sources hash-connected to the joined prefix). Pure analysis — no
/// locks, no data access. SELECT plans its FROM list this way; UPDATE
/// and DELETE plan their one target table.
///
/// Every statement gets a plan. A WHERE naming a column no single
/// source owns cannot be split, so it gets the cross-product plan: every
/// source scanned, nested loops in FROM order, and the whole WHERE as
/// the one final residual.
Result<SelectPlan> PlanSelect(const Expr* where,
                              const std::vector<PlannerSource>& sources);

}  // namespace msql::relational

#endif  // MSQL_RELATIONAL_PLANNER_H_
