#include "relational/planner.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/string_util.h"
#include "relational/index.h"
#include "relational/table.h"

namespace msql::relational {

namespace {

/// Case-insensitive column lookup, matching RowBinding's resolution.
std::optional<size_t> FindColumnOf(const TableSchema& schema,
                                   const std::string& name) {
  const auto& cols = schema.columns();
  for (size_t i = 0; i < cols.size(); ++i) {
    if (EqualsIgnoreCase(cols[i].name, name)) return i;
  }
  return std::nullopt;
}

/// Sources a column reference can bind to (same matching rule as the
/// executor's RowBinding: qualifier against effective name, then the
/// column must exist).
std::vector<size_t> MatchSources(const ColumnRefExpr& ref,
                                 const std::vector<PlannerSource>& sources) {
  std::vector<size_t> out;
  for (size_t i = 0; i < sources.size(); ++i) {
    if (!ref.qualifier().empty() &&
        !EqualsIgnoreCase(sources[i].effective_name, ref.qualifier())) {
      continue;
    }
    if (FindColumnOf(*sources[i].schema, ref.name()).has_value()) {
      out.push_back(i);
    }
  }
  return out;
}

/// Per-conjunct classification computed once up front.
struct ConjunctInfo {
  const Expr* expr = nullptr;
  std::vector<size_t> source_set;  // sorted, unique
  bool has_subquery = false;
  // `a.x = b.y` shape with both sides bare single-source column refs on
  // distinct sources (hash-join candidate).
  bool is_equi_pair = false;
  size_t left_source = 0, right_source = 0;
  size_t left_pos = 0, right_pos = 0;  // combined-row positions
  bool consumed = false;
};

std::string FormatEst(double est) {
  return std::to_string(static_cast<long long>(std::llround(est)));
}

/// The plan for a WHERE naming a column that no single source owns
/// (unknown or ambiguous): scan every source, nested loops in FROM order,
/// and the whole WHERE as the one final filter. The join runner then
/// evaluates it left to right on each combined row in FROM-major order,
/// so the binding error surfaces on the first row that reaches the bad
/// name — or never, when short-circuiting skips it on every row.
SelectPlan CrossProductPlan(const SelectStmt& stmt,
                            const std::vector<PlannerSource>& sources,
                            SelectPlan plan) {
  for (size_t i = 0; i < sources.size(); ++i) {
    plan.estimated_rows.push_back(
        std::max(static_cast<double>(sources[i].row_count), 1.0));
    JoinStep step;
    step.source = i;
    step.estimated_rows = plan.estimated_rows[i];
    plan.steps.push_back(std::move(step));
  }
  plan.final_residual.push_back(stmt.where.get());
  return plan;
}

}  // namespace

const PlannedProbe* SelectPlan::ProbeFor(size_t source) const {
  for (const auto& p : probes) {
    if (p.source == source) return &p;
  }
  return nullptr;
}

std::string SelectPlan::Explain() const {
  std::string out = "plan: " + std::to_string(num_sources()) +
                    " source(s), " + std::to_string(pushed_conjuncts) +
                    " pushed conjunct(s), " + std::to_string(equi_conjuncts) +
                    " equi-join key(s)\n";
  for (size_t i = 0; i < num_sources(); ++i) {
    out += "  source " + std::to_string(i) + " (" + source_names[i] + "): ";
    if (const PlannedProbe* probe = ProbeFor(i)) {
      out += "index probe " + probe->index_name + " [" + probe->column +
             " = " + probe->key.ToSqlLiteral() + "]";
    } else {
      out += "scan";
    }
    for (const auto& f : filters) {
      if (f.source == i) out += "; filter " + f.conjunct->ToSql();
    }
    out += "; est " + FormatEst(estimated_rows[i]) + " row(s)\n";
  }
  out += "join order:\n";
  for (size_t k = 0; k < steps.size(); ++k) {
    const JoinStep& step = steps[k];
    out += "  [" + std::to_string(k) + "] ";
    if (k == 0) {
      out += "start";
    } else if (!step.keys.empty()) {
      out += "hash join";
    } else {
      out += "nested loop";
    }
    out += " source " + std::to_string(step.source) + " (" +
           source_names[step.source] + ")";
    for (size_t j = 0; j < step.keys.size(); ++j) {
      out += (j == 0 ? " on " : " and ") + step.keys[j].conjunct->ToSql();
    }
    for (const auto* residual : step.residual) {
      out += "; residual " + residual->ToSql();
    }
    out += "\n";
  }
  for (const auto* residual : final_residual) {
    out += "final filter: " + residual->ToSql() + "\n";
  }
  return out;
}

Result<SelectPlan> PlanSelect(const SelectStmt& stmt,
                              const std::vector<PlannerSource>& sources) {
  SelectPlan plan;
  size_t offset = 0;
  for (const auto& src : sources) {
    plan.source_names.push_back(src.effective_name);
    plan.source_offsets.push_back(offset);
    plan.source_widths.push_back(src.schema->num_columns());
    offset += src.schema->num_columns();
  }

  // -- Conjunct classification -------------------------------------------
  std::vector<ConjunctInfo> conjuncts;
  if (stmt.where != nullptr) {
    std::vector<const Expr*> split;
    SplitConjuncts(*stmt.where, &split);
    for (const Expr* c : split) {
      ConjunctInfo info;
      info.expr = c;
      info.has_subquery = ContainsScalarSubquery(*c);
      if (info.has_subquery) {
        // Uncorrelated subqueries cannot see the outer row, but their
        // conjunct must still be judged on fully joined rows.
        conjuncts.push_back(std::move(info));
        continue;
      }
      std::vector<const ColumnRefExpr*> refs;
      CollectColumnRefs(*c, &refs);
      for (const ColumnRefExpr* ref : refs) {
        std::vector<size_t> matches = MatchSources(*ref, sources);
        if (matches.size() != 1) {
          // Unknown or ambiguous name: whether (and on which row) it
          // errors depends on the data, so the WHERE stays whole.
          return CrossProductPlan(stmt, sources, std::move(plan));
        }
        info.source_set.push_back(matches[0]);
      }
      std::sort(info.source_set.begin(), info.source_set.end());
      info.source_set.erase(
          std::unique(info.source_set.begin(), info.source_set.end()),
          info.source_set.end());
      // Hash-join candidate: `colA = colB` across two sources.
      if (info.source_set.size() == 2 && c->kind() == ExprKind::kBinary) {
        const auto& b = static_cast<const BinaryExpr&>(*c);
        if (b.op() == BinaryOp::kEq &&
            b.left().kind() == ExprKind::kColumnRef &&
            b.right().kind() == ExprKind::kColumnRef) {
          const auto& lref = static_cast<const ColumnRefExpr&>(b.left());
          const auto& rref = static_cast<const ColumnRefExpr&>(b.right());
          size_t ls = MatchSources(lref, sources)[0];
          size_t rs = MatchSources(rref, sources)[0];
          info.is_equi_pair = true;
          info.left_source = ls;
          info.right_source = rs;
          info.left_pos = plan.source_offsets[ls] +
                          *FindColumnOf(*sources[ls].schema, lref.name());
          info.right_pos = plan.source_offsets[rs] +
                           *FindColumnOf(*sources[rs].schema, rref.name());
        }
      }
      conjuncts.push_back(std::move(info));
    }
  }

  // Distribute: single-source conjuncts push below the join; zero-source
  // (constants) and subquery conjuncts stay on the joined row.
  for (auto& info : conjuncts) {
    if (info.has_subquery || info.source_set.empty()) {
      plan.final_residual.push_back(info.expr);
      info.consumed = true;
    } else if (info.source_set.size() == 1) {
      plan.filters.push_back(PushedFilter{info.source_set[0], info.expr});
      ++plan.pushed_conjuncts;
      info.consumed = true;
    }
  }

  // -- Index probe selection ---------------------------------------------
  // First pushed `col = literal` conjunct per base table whose column is
  // indexed. A NULL literal never matches under SQL `=`, so it stays a
  // plain filter (which rejects every row) instead of becoming a probe
  // (which would wrongly return NULL-keyed rows).
  for (size_t i = 0; i < sources.size(); ++i) {
    if (sources[i].table == nullptr) continue;
    for (auto it = plan.filters.begin(); it != plan.filters.end(); ++it) {
      if (it->source != i || it->conjunct->kind() != ExprKind::kBinary) {
        continue;
      }
      const auto& b = static_cast<const BinaryExpr&>(*it->conjunct);
      if (b.op() != BinaryOp::kEq) continue;
      const Expr* col = &b.left();
      const Expr* lit = &b.right();
      if (col->kind() != ExprKind::kColumnRef) std::swap(col, lit);
      if (col->kind() != ExprKind::kColumnRef ||
          lit->kind() != ExprKind::kLiteral) {
        continue;
      }
      const auto& ref = static_cast<const ColumnRefExpr&>(*col);
      const Value& key = static_cast<const LiteralExpr&>(*lit).value();
      if (key.is_null()) continue;
      const Index* index = sources[i].table->FindIndexOnColumn(ref.name());
      if (index == nullptr) continue;
      PlannedProbe probe;
      probe.source = i;
      probe.index = index;
      probe.index_name = index->name();
      probe.column = ToLower(ref.name());
      probe.key = key;
      probe.conjunct = it->conjunct;
      plan.probes.push_back(std::move(probe));
      --plan.pushed_conjuncts;
      plan.filters.erase(it);
      break;
    }
  }

  // -- Cardinality estimates ---------------------------------------------
  // Textbook selectivities: a probe yields rows/distinct-keys, a pushed
  // equality keeps 1/10, any other pushed filter 1/3. Estimates are
  // clamped to >= 1 row post-filter: an empty or heavily filtered source
  // still pays per-step bookkeeping and must never look cost-free, or
  // `est 0 row(s)` propagates through joins that still scan the other
  // side.
  plan.estimated_rows.assign(sources.size(), 0.0);
  for (size_t i = 0; i < sources.size(); ++i) {
    double est = static_cast<double>(sources[i].row_count);
    if (const PlannedProbe* probe = plan.ProbeFor(i)) {
      est /= static_cast<double>(std::max<size_t>(1, probe->index->distinct_keys()));
    }
    for (const auto& f : plan.filters) {
      if (f.source != i) continue;
      bool is_eq = f.conjunct->kind() == ExprKind::kBinary &&
                   static_cast<const BinaryExpr&>(*f.conjunct).op() ==
                       BinaryOp::kEq;
      est /= is_eq ? 10.0 : 3.0;
    }
    plan.estimated_rows[i] = std::max(est, 1.0);
  }

  // -- Greedy join ordering ----------------------------------------------
  // Start from the smallest estimated source; repeatedly join the
  // smallest source hash-connected to the prefix (falling back to the
  // smallest remaining source as a nested-loop cross step). Each step
  // consumes every conjunct whose sources are now all joined: equi pairs
  // with one side on the new source become hash keys, the rest become
  // the step's residual filter.
  std::vector<bool> joined(sources.size(), false);
  // Static hash-connectivity degree: how many unconsumed equi-join
  // pairs touch source i. Used as the first tie-breaker so that, when
  // estimates tie, the plan anchors on the source with the most join
  // partners instead of whichever came first in the FROM clause.
  auto connectivity = [&](size_t i) -> int {
    int degree = 0;
    for (const auto& info : conjuncts) {
      if (info.consumed || !info.is_equi_pair) continue;
      if (info.left_source == info.right_source) continue;
      if (info.left_source == i || info.right_source == i) ++degree;
    }
    return degree;
  };
  auto smallest = [&](bool need_connection) -> int {
    int best = -1;
    for (size_t i = 0; i < sources.size(); ++i) {
      if (joined[i]) continue;
      if (need_connection) {
        bool connected = false;
        for (const auto& info : conjuncts) {
          if (info.consumed || !info.is_equi_pair) continue;
          size_t a = info.left_source, b = info.right_source;
          if ((a == i && joined[b]) || (b == i && joined[a])) {
            connected = true;
            break;
          }
        }
        if (!connected) continue;
      }
      if (best < 0) {
        best = static_cast<int>(i);
        continue;
      }
      // Primary: smallest estimate. Ties break by hash-connectivity
      // (higher degree first), then by source name — never by FROM
      // position, which would make plans (and rows_scanned) depend on
      // clause order.
      const double est_i = plan.estimated_rows[i];
      const double est_best = plan.estimated_rows[best];
      bool better = est_i < est_best;
      if (est_i == est_best) {
        const int deg_i = connectivity(i);
        const int deg_best = connectivity(static_cast<size_t>(best));
        better = deg_i > deg_best ||
                 (deg_i == deg_best &&
                  plan.source_names[i] <
                      plan.source_names[static_cast<size_t>(best)]);
      }
      if (better) best = static_cast<int>(i);
    }
    return best;
  };

  for (size_t n = 0; n < sources.size(); ++n) {
    int next = n == 0 ? smallest(false) : smallest(true);
    if (next < 0) next = smallest(false);  // disconnected: cross step
    JoinStep step;
    step.source = static_cast<size_t>(next);
    step.estimated_rows = plan.estimated_rows[step.source];
    joined[step.source] = true;
    for (auto& info : conjuncts) {
      if (info.consumed) continue;
      bool covered = true;
      for (size_t s : info.source_set) {
        if (!joined[s]) covered = false;
      }
      if (!covered) continue;
      if (info.is_equi_pair &&
          (info.left_source == step.source ||
           info.right_source == step.source) &&
          info.left_source != info.right_source && n > 0) {
        JoinStep::EquiKey key;
        key.conjunct = info.expr;
        if (info.left_source == step.source) {
          key.source_pos = info.left_pos;
          key.prefix_pos = info.right_pos;
        } else {
          key.source_pos = info.right_pos;
          key.prefix_pos = info.left_pos;
        }
        step.keys.push_back(key);
        ++plan.equi_conjuncts;
      } else {
        step.residual.push_back(info.expr);
      }
      info.consumed = true;
    }
    plan.steps.push_back(std::move(step));
  }

  return plan;
}

}  // namespace msql::relational
