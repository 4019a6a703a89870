#include "analysis/conflict_analyzer.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "common/string_util.h"
#include "relational/sql/parser.h"
#include "relational/txn.h"

namespace msql::analysis {

namespace {

/// The session a TASK/TRANSFER targets, resolved from its OPEN.
struct OpenedSession {
  std::string database;
  std::string service;
};

/// Sink for one task's predicted accesses while its SQL is walked.
struct AccessSink {
  AccessSummary* summary;
  std::string task;
  OpenedSession session;
  int step = 0;
  bool nocommit = false;
  bool compensation = false;

  void Add(const std::string& table, PredictedMode mode, bool ddl = false) {
    TaskAccess access;
    access.task = task;
    access.service = session.service;
    access.database = session.database;
    // `table` == "*" is the whole-database wildcard.
    access.resource =
        relational::LockKey(ToLower(session.database), ToLower(table));
    access.mode = mode;
    access.step = step;
    // Compensation runs autocommit after the global decision, when the
    // 2PC bracket's locks are already released.
    access.held_across_2pc = nocommit && !compensation;
    access.ddl = ddl;
    access.compensation = compensation;
    summary->task_accesses.push_back(std::move(access));
  }
};

void CollectSelectReads(const relational::SelectStmt& select,
                        AccessSink* sink);

/// Reads hidden inside scalar subqueries, at any depth.
void CollectExprReads(const relational::Expr& expr, AccessSink* sink) {
  if (expr.kind() == relational::ExprKind::kScalarSubquery) {
    CollectSelectReads(
        static_cast<const relational::ScalarSubqueryExpr&>(expr).select(),
        sink);
    return;
  }
  relational::ForEachChild(expr, [sink](const relational::Expr& child) {
    CollectExprReads(child, sink);
  });
}

void CollectSelectReads(const relational::SelectStmt& select,
                        AccessSink* sink) {
  for (const auto& ref : select.from) {
    sink->Add(ref.table, PredictedMode::kShared);
  }
  relational::ForEachClause(select, [sink](const relational::Expr& expr) {
    CollectExprReads(expr, sink);
  });
}

/// Predicted accesses of one statement of a task body, mirroring the
/// lock points of relational::Executor (S on every FROM reference, X on
/// the INSERT/UPDATE/DELETE target and on DDL'd tables/views/indexes).
void CollectStatementAccesses(const relational::Statement& stmt,
                              AccessSink* sink) {
  using relational::StatementKind;
  switch (stmt.kind()) {
    case StatementKind::kSelect:
      CollectSelectReads(static_cast<const relational::SelectStmt&>(stmt),
                         sink);
      break;
    case StatementKind::kInsert: {
      const auto& insert = static_cast<const relational::InsertStmt&>(stmt);
      sink->Add(insert.table.table, PredictedMode::kExclusive);
      if (insert.select_source) {
        CollectSelectReads(*insert.select_source, sink);
      }
      for (const auto& row : insert.values_rows) {
        for (const auto& expr : row) CollectExprReads(*expr, sink);
      }
      break;
    }
    case StatementKind::kUpdate: {
      const auto& update = static_cast<const relational::UpdateStmt&>(stmt);
      sink->Add(update.table.table, PredictedMode::kExclusive);
      for (const auto& assignment : update.assignments) {
        CollectExprReads(*assignment.value, sink);
      }
      if (update.where) CollectExprReads(*update.where, sink);
      break;
    }
    case StatementKind::kDelete: {
      const auto& del = static_cast<const relational::DeleteStmt&>(stmt);
      sink->Add(del.table.table, PredictedMode::kExclusive);
      if (del.where) CollectExprReads(*del.where, sink);
      break;
    }
    case StatementKind::kCreateTable:
      sink->Add(static_cast<const relational::CreateTableStmt&>(stmt)
                    .table.table,
                PredictedMode::kExclusive, /*ddl=*/true);
      break;
    case StatementKind::kDropTable:
      sink->Add(
          static_cast<const relational::DropTableStmt&>(stmt).table.table,
          PredictedMode::kExclusive, /*ddl=*/true);
      break;
    case StatementKind::kCreateView: {
      const auto& view = static_cast<const relational::CreateViewStmt&>(stmt);
      sink->Add(view.name, PredictedMode::kExclusive, /*ddl=*/true);
      if (view.definition) CollectSelectReads(*view.definition, sink);
      break;
    }
    case StatementKind::kDropView:
      sink->Add(static_cast<const relational::DropViewStmt&>(stmt).name,
                PredictedMode::kExclusive, /*ddl=*/true);
      break;
    case StatementKind::kCreateIndex:
      sink->Add(
          static_cast<const relational::CreateIndexStmt&>(stmt).table.table,
          PredictedMode::kExclusive, /*ddl=*/true);
      break;
    case StatementKind::kDropIndex:
      sink->Add(
          static_cast<const relational::DropIndexStmt&>(stmt).table.table,
          PredictedMode::kExclusive, /*ddl=*/true);
      break;
    case StatementKind::kBegin:
    case StatementKind::kCommit:
    case StatementKind::kRollback:
    case StatementKind::kPrepare:
      break;
  }
}

/// Parses and walks one SQL block; unparseable SQL degrades to the
/// whole-database wildcard write (sound fallback).
void CollectSqlAccesses(const std::string& sql, AccessSink* sink) {
  auto parsed = relational::ParseSqlScript(sql);
  if (!parsed.ok()) {
    sink->Add("*", PredictedMode::kExclusive);
    sink->summary->opaque_services.insert(sink->session.service);
    return;
  }
  for (const auto& stmt : *parsed) CollectStatementAccesses(*stmt, sink);
}

/// Flow walk assigning acquisition steps: sequential statements advance
/// the step counter; every task of one PARBEGIN shares a step (their
/// first acquisitions are mutually unordered).
class PlanWalker {
 public:
  explicit PlanWalker(AccessSummary* summary) : summary_(summary) {}

  void Walk(const dol::DolProgram& program) {
    for (const auto& stmt : program.statements) WalkStmt(*stmt, false);
  }

 private:
  void WalkStmt(const dol::DolStmt& stmt, bool in_parallel) {
    switch (stmt.kind()) {
      case dol::DolStmtKind::kOpen: {
        const auto& open = static_cast<const dol::OpenStmt&>(stmt);
        opens_[open.alias] = OpenedSession{open.database, open.service};
        break;
      }
      case dol::DolStmtKind::kTask: {
        const auto& task = static_cast<const dol::TaskStmt&>(stmt);
        tasks_[task.name] = &task;
        AccessSink sink;
        sink.summary = summary_;
        sink.task = task.name;
        sink.session = opens_[task.target_alias];
        sink.step = next_step_;
        sink.nocommit = task.nocommit;
        CollectSqlAccesses(task.body_sql, &sink);
        if (!in_parallel) ++next_step_;
        break;
      }
      case dol::DolStmtKind::kParallel: {
        const auto& par = static_cast<const dol::ParallelStmt&>(stmt);
        for (const auto& inner : par.body) WalkStmt(*inner, true);
        ++next_step_;
        break;
      }
      case dol::DolStmtKind::kIf: {
        const auto& branch = static_cast<const dol::IfStmt&>(stmt);
        for (const auto& inner : branch.then_branch) {
          WalkStmt(*inner, in_parallel);
        }
        for (const auto& inner : branch.else_branch) {
          WalkStmt(*inner, in_parallel);
        }
        break;
      }
      case dol::DolStmtKind::kCompensate: {
        const auto& comp = static_cast<const dol::CompensateStmt&>(stmt);
        for (const auto& name : comp.tasks) {
          auto it = tasks_.find(name);
          if (it == tasks_.end() || it->second->compensation_sql.empty()) {
            continue;
          }
          AccessSink sink;
          sink.summary = summary_;
          sink.task = name;
          sink.session = opens_[it->second->target_alias];
          sink.step = next_step_;
          sink.compensation = true;
          CollectSqlAccesses(it->second->compensation_sql, &sink);
        }
        break;
      }
      case dol::DolStmtKind::kTransfer: {
        const auto& transfer = static_cast<const dol::TransferStmt&>(stmt);
        AccessSink sink;
        sink.summary = summary_;
        sink.task = transfer.task;
        sink.session = opens_[transfer.target_alias];
        sink.step = next_step_;
        // Non-APPEND transfers create the target as a temporary table.
        sink.Add(transfer.table, PredictedMode::kExclusive,
                 /*ddl=*/!transfer.append);
        if (!in_parallel) ++next_step_;
        break;
      }
      case dol::DolStmtKind::kCommit:
      case dol::DolStmtKind::kAbort:
      case dol::DolStmtKind::kSetStatus:
      case dol::DolStmtKind::kClose:
        break;
    }
  }

  AccessSummary* summary_;
  std::map<std::string, OpenedSession> opens_;
  std::map<std::string, const dol::TaskStmt*> tasks_;
  int next_step_ = 1;
};

bool ModesConflict(PredictedMode a, PredictedMode b) {
  return a == PredictedMode::kExclusive || b == PredictedMode::kExclusive;
}

/// One contended (service, resource-pair) between two summaries, with
/// each side's first-acquisition step.
struct Contention {
  const TaskAccess* a;
  const TaskAccess* b;
};

std::vector<Contention> FindContentions(const AccessSummary& a,
                                        const AccessSummary& b) {
  std::vector<Contention> out;
  for (const auto& mine : a.accesses) {
    for (const auto& theirs : b.accesses) {
      if (mine.service != theirs.service) continue;
      if (!ResourcesOverlap(mine.resource, theirs.resource)) continue;
      if (!ModesConflict(mine.mode, theirs.mode)) continue;
      out.push_back(Contention{&mine, &theirs});
    }
  }
  return out;
}

/// Deadlock signature: two contended resources that the plans may
/// first-acquire in opposite orders. Equal steps (PARBEGIN siblings)
/// leave the order open, so they count in both directions.
bool HasDeadlockSignature(const std::vector<Contention>& contentions) {
  for (size_t i = 0; i < contentions.size(); ++i) {
    for (size_t j = 0; j < contentions.size(); ++j) {
      if (i == j) continue;
      const Contention& r = contentions[i];
      const Contention& s = contentions[j];
      if (r.a == s.a && r.b == s.b) continue;
      if (r.a->step <= s.a->step && s.b->step <= r.b->step) return true;
    }
  }
  return false;
}

}  // namespace

std::string_view PredictedModeName(PredictedMode mode) {
  return mode == PredictedMode::kExclusive ? "X" : "S";
}

bool ResourcesOverlap(const std::string& a, const std::string& b) {
  if (a == b) return true;
  size_t dot_a = a.find('.');
  size_t dot_b = b.find('.');
  if (dot_a == std::string::npos || dot_b == std::string::npos) return false;
  if (a.compare(0, dot_a, b, 0, dot_b) != 0) return false;
  return a.compare(dot_a + 1, std::string::npos, "*") == 0 ||
         b.compare(dot_b + 1, std::string::npos, "*") == 0;
}

const TaskAccess* AccessSummary::Find(const std::string& service,
                                      const std::string& resource) const {
  for (const auto& access : accesses) {
    if (access.service == service && access.resource == resource) {
      return &access;
    }
  }
  return nullptr;
}

AccessSummary SummarizePlan(const translator::Plan& plan) {
  AccessSummary summary;
  PlanWalker walker(&summary);
  walker.Walk(plan.program);

  // Merge per (service, resource): write dominates read, earliest step
  // wins, hold/DDL flags accumulate; an access is compensation-only when
  // every contributing task access is.
  std::map<std::pair<std::string, std::string>, size_t> merged_index;
  for (const auto& access : summary.task_accesses) {
    auto key = std::make_pair(access.service, access.resource);
    auto it = merged_index.find(key);
    if (it == merged_index.end()) {
      merged_index[key] = summary.accesses.size();
      summary.accesses.push_back(access);
      continue;
    }
    TaskAccess& merged = summary.accesses[it->second];
    if (access.mode == PredictedMode::kExclusive) {
      merged.mode = PredictedMode::kExclusive;
    }
    merged.step = std::min(merged.step, access.step);
    merged.held_across_2pc |= access.held_across_2pc;
    merged.ddl |= access.ddl;
    merged.compensation &= access.compensation;
  }

  std::set<std::string> two_pc_services;
  for (const auto& access : summary.accesses) {
    if (access.held_across_2pc) two_pc_services.insert(access.service);
  }
  summary.two_pc_sites = static_cast<int>(two_pc_services.size());
  return summary;
}

std::string AccessSummary::Render() const {
  std::ostringstream out;
  // Group merged accesses per service, ordered by first acquisition.
  std::map<std::string, std::vector<const TaskAccess*>> by_service;
  std::map<std::string, int> first_step;
  for (const auto& access : accesses) {
    by_service[access.service].push_back(&access);
    auto it = first_step.find(access.service);
    if (it == first_step.end() || access.step < it->second) {
      first_step[access.service] = access.step;
    }
  }
  out << "access summary: " << by_service.size() << " site"
      << (by_service.size() == 1 ? "" : "s") << ", " << accesses.size()
      << " resource" << (accesses.size() == 1 ? "" : "s") << "\n";

  std::vector<std::string> services;
  for (const auto& [service, _] : by_service) services.push_back(service);
  std::sort(services.begin(), services.end(),
            [&](const std::string& x, const std::string& y) {
              if (first_step[x] != first_step[y]) {
                return first_step[x] < first_step[y];
              }
              return x < y;
            });

  for (const auto& service : services) {
    out << "  site " << service << " (step " << first_step[service] << "):\n";
    for (const TaskAccess* access : by_service[service]) {
      out << "    " << PredictedModeName(access->mode) << " "
          << access->resource << "  step " << access->step;
      if (access->held_across_2pc) out << "  [held across 2PC]";
      if (access->ddl) out << "  [ddl]";
      if (access->compensation) out << "  [compensation]";
      if (opaque_services.count(service) &&
          access->resource.size() > 2 &&
          access->resource.compare(access->resource.size() - 2, 2, ".*") ==
              0) {
        out << "  [opaque SQL]";
      }
      out << "\n";
    }
  }

  if (services.size() > 1) {
    out << "  acquisition order: ";
    for (size_t i = 0; i < services.size(); ++i) {
      if (i > 0) {
        out << (first_step[services[i]] == first_step[services[i - 1]]
                    ? " | "
                    : " -> ");
      }
      out << services[i];
    }
    out << "\n";
  }
  if (two_pc_sites > 0) {
    out << "  2PC bracket holds locks at " << two_pc_sites << " site"
        << (two_pc_sites == 1 ? "" : "s") << "\n";
  }
  return out.str();
}

PairwiseConflict Classify(const AccessSummary& a, const AccessSummary& b) {
  PairwiseConflict result;
  std::vector<Contention> contentions = FindContentions(a, b);
  if (contentions.empty()) return result;

  result.kind = ConflictKind::kReadWrite;
  std::set<std::string> seen;
  for (const auto& c : contentions) {
    if (c.a->mode == PredictedMode::kExclusive &&
        c.b->mode == PredictedMode::kExclusive) {
      result.kind = ConflictKind::kWriteWrite;
    }
    std::string key = c.a->service + ":" +
                      (c.a->resource == c.b->resource
                           ? c.a->resource
                           : c.a->resource + "|" + c.b->resource);
    if (seen.insert(key).second) result.resources.push_back(key);
  }
  result.deadlock_risk = HasDeadlockSignature(contentions);
  return result;
}

DiagnosticList AnalyzeConflicts(const translator::Plan& plan,
                                const AccessSummary& summary) {
  DiagnosticList diags;
  std::set<std::string> emitted;
  auto once = [&emitted](std::string key) {
    return emitted.insert(std::move(key)).second;
  };

  const auto& accesses = summary.task_accesses;

  // DL306: opaque task SQL degraded to a whole-database wildcard. DDL
  // wildcards (CREATE/DROP DATABASE) are real whole-db writes, not
  // parse fallbacks.
  for (const auto& access : accesses) {
    if (access.ddl || access.compensation) continue;
    if (access.resource.size() < 2 ||
        access.resource.compare(access.resource.size() - 2, 2, ".*") != 0) {
      continue;
    }
    if (!summary.opaque_services.count(access.service)) continue;
    if (!once("DL306:" + access.task)) continue;
    diags.Add(diag::kOpaqueTaskSql, Severity::kWarning, SourceSpan{},
              "task '" + access.task + "' has SQL the analyzer cannot parse; "
              "its footprint at " + access.service +
                  " widens to every table of " + access.database,
              "conflict prediction is coarse for this plan: any session "
              "touching " + access.database + " is classified as contended");
  }

  // DL302 / DL304 / DL307 / DL308: pairwise over the task accesses.
  for (const auto& holder : accesses) {
    for (const auto& other : accesses) {
      if (holder.task == other.task) continue;
      if (holder.service != other.service) continue;
      if (!ResourcesOverlap(holder.resource, other.resource)) continue;
      if (!ModesConflict(holder.mode, other.mode)) continue;

      // DL302: a NOCOMMIT task's locks release only at the global
      // decision, which waits for every task — any later (or parallel)
      // sibling needing the resource deadlocks the plan against itself.
      // The classic instance: two USE aliases of the same database.
      if (holder.held_across_2pc && !other.compensation &&
          other.step >= holder.step &&
          once("DL302:" + holder.task + ":" + other.task + ":" +
               holder.resource)) {
        diags.Add(
            diag::kSelfDeadlock, Severity::kError, SourceSpan{},
            "self-deadlock: task '" + other.task + "' needs " +
                other.resource + " (" +
                std::string(PredictedModeName(other.mode)) + ") at " +
                holder.service + ", but task '" + holder.task +
                "' holds it in " +
                std::string(PredictedModeName(holder.mode)) +
                " across the 2PC bracket; the lock releases only after "
                "'" + other.task + "' completes",
            "route both accesses through one task, or drop the aliased "
            "session so the plan opens " + holder.database + " once");
      }

      // DL304: an autocommit writer commits locally before the global
      // decision; a sibling that then reads the table sees data the MT
      // may still compensate away — a global-level dirty read.
      if (holder.mode == PredictedMode::kExclusive &&
          !holder.held_across_2pc && !holder.compensation &&
          !holder.ddl && !other.compensation &&
          other.mode == PredictedMode::kShared &&
          other.step >= holder.step &&
          once("DL304:" + holder.task + ":" + other.task + ":" +
               holder.resource)) {
        diags.Add(
            diag::kUncommittedIntraRead, Severity::kWarning, SourceSpan{},
            "task '" + other.task + "' reads " + other.resource +
                " after sibling task '" + holder.task +
                "' wrote it in autocommit; if the multitransaction later "
                "compensates, the read saw globally uncommitted data",
            "make '" + holder.task + "' NOCOMMIT (2PC) so the write stays "
            "invisible until the global decision");
      }

      // DL307: unordered sibling writers racing on one resource.
      if (holder.mode == PredictedMode::kExclusive &&
          other.mode == PredictedMode::kExclusive &&
          holder.step == other.step && !holder.held_across_2pc &&
          !other.held_across_2pc && !holder.compensation &&
          !other.compensation && holder.task < other.task &&
          once("DL307:" + holder.task + ":" + other.task + ":" +
               holder.resource)) {
        diags.Add(diag::kParallelSiblingWrites, Severity::kWarning,
                  SourceSpan{},
                  "parallel tasks '" + holder.task + "' and '" + other.task +
                      "' both write " + holder.resource +
                      "; their serialization order inside the PARBEGIN is "
                      "nondeterministic",
                  "order the tasks sequentially if the final state depends "
                  "on who writes last");
      }

      // DL308: DDL on a table other tasks of the plan also touch.
      if (holder.ddl && !other.ddl &&
          once("DL308:" + holder.task + ":" + holder.resource)) {
        diags.Add(diag::kDdlOnSharedTable, Severity::kNote, SourceSpan{},
                  "task '" + holder.task + "' runs DDL on " +
                      holder.resource + " while task '" + other.task +
                      "' also touches it",
                  "");
      }
    }
  }

  // DL303: an X lock held across the 2PC bracket while a vital task at
  // another site may still be retried (engine backoff re-sends) keeps
  // the table unavailable for the whole retry window.
  for (const auto& holder : accesses) {
    if (!holder.held_across_2pc ||
        holder.mode != PredictedMode::kExclusive) {
      continue;
    }
    for (const auto& task : plan.tasks) {
      if (!task.vital || task.service == holder.service) continue;
      const auto step_of = [&accesses](const std::string& name) {
        int step = 0;
        for (const auto& access : accesses) {
          if (access.task == name) return access.step;
        }
        return step;
      };
      if (step_of(task.task) < holder.step) continue;
      if (!once("DL303:" + holder.task + ":" + holder.resource)) break;
      diags.Add(diag::kExclusiveHeldAcrossRetry, Severity::kNote,
                SourceSpan{},
                "task '" + holder.task + "' holds " + holder.resource +
                    " exclusively across the 2PC bracket while vital task "
                    "'" + task.task + "' at " + task.service +
                    " may still be retried; the table stays blocked for "
                    "the whole retry window",
                "");
      break;
    }
  }

  // DL305: NOCOMMIT locks held at two or more sites — the widest
  // blocking footprint a multitransaction can pin during 2PC.
  if (summary.two_pc_sites >= 2) {
    diags.Add(diag::kWideTwoPcBracket, Severity::kNote, SourceSpan{},
              "2PC bracket holds locks at " +
                  std::to_string(summary.two_pc_sites) +
                  " sites until the global decision; a slow or retried "
                  "participant blocks every site's tables",
              "");
  }

  return diags;
}

DiagnosticList CheckPlanPair(const AccessSummary& a, const AccessSummary& b,
                             size_t a_index, size_t b_index) {
  DiagnosticList diags;
  PairwiseConflict conflict = Classify(a, b);
  if (!conflict.deadlock_risk) return diags;

  std::string resources;
  for (size_t i = 0; i < conflict.resources.size() && i < 4; ++i) {
    if (i > 0) resources += ", ";
    resources += conflict.resources[i];
  }
  diags.Add(diag::kLockOrderInversion, Severity::kWarning, SourceSpan{},
            "inputs " + std::to_string(a_index) + " and " +
                std::to_string(b_index) +
                " may first-acquire contended resources in opposite "
                "orders (" + resources +
                "); run concurrently they can deadlock",
            "acquire sites in one global order, or serialize the two "
            "inputs");
  return diags;
}

std::string RenderConflictMatrix(
    const std::vector<const AccessSummary*>& summaries) {
  std::ostringstream out;
  size_t n = summaries.size();
  out << "pairwise conflicts (" << n << " input" << (n == 1 ? "" : "s")
      << "): . none, R read/write, W write/write, ! deadlock risk\n";
  out << "     ";
  for (size_t j = 0; j < n; ++j) {
    out << " " << (j + 1 < 10 ? " " : "") << (j + 1);
  }
  out << "\n";
  for (size_t i = 0; i < n; ++i) {
    out << "  " << (i + 1 < 10 ? " " : "") << (i + 1) << " ";
    for (size_t j = 0; j < n; ++j) {
      std::string cell = " .";
      if (!summaries[i] || !summaries[j]) {
        cell = " -";
      } else if (i != j) {
        PairwiseConflict c = Classify(*summaries[i], *summaries[j]);
        if (c.kind != ConflictKind::kNone) {
          cell = std::string(1, c.deadlock_risk ? '!' : ' ') +
                 (c.kind == ConflictKind::kWriteWrite ? "W" : "R");
        }
      }
      out << " " << cell;
    }
    out << "\n";
  }
  return out.str();
}

void ConflictGraph::Admit(uint64_t id,
                          std::shared_ptr<const AccessSummary> summary) {
  if (summary) admitted_[id] = std::move(summary);
}

void ConflictGraph::Remove(uint64_t id) {
  admitted_.erase(id);
  quiesced_.erase(id);
}

// The admission query asks only for what it uses: Classify's
// deadlock_risk is the signature over the contentions.
bool ConflictGraph::WouldRiskDeadlock(const AccessSummary& candidate,
                                      std::vector<uint64_t>* against) const {
  bool risk = false;
  for (const auto& [id, summary] : admitted_) {
    if (quiesced_.count(id) != 0) continue;
    if (HasDeadlockSignature(FindContentions(candidate, *summary))) {
      risk = true;
      if (against) against->push_back(id);
    }
  }
  return risk;
}

}  // namespace msql::analysis
