#include "translator/translator.h"

#include <set>

#include "common/string_util.h"

namespace msql::translator {

using dol::AbortStmt;
using dol::BinaryCond;
using dol::CloseStmt;
using dol::CommitStmt;
using dol::CompensateStmt;
using dol::DolCondKind;
using dol::DolCondPtr;
using dol::DolProgram;
using dol::DolStmtPtr;
using dol::DolTaskState;
using dol::IfStmt;
using dol::OpenStmt;
using dol::ParallelStmt;
using dol::SetStatusStmt;
using dol::StateTestCond;
using dol::TaskStmt;
using dol::TransferStmt;
using lang::ElementaryQuery;
using relational::StatementKind;

namespace {

DolCondPtr StateIs(const std::string& task, DolTaskState state) {
  return std::make_unique<StateTestCond>(task, state);
}

DolCondPtr AndCombine(DolCondPtr left, DolCondPtr right) {
  if (left == nullptr) return right;
  if (right == nullptr) return left;
  return std::make_unique<BinaryCond>(DolCondKind::kAnd, std::move(left),
                                      std::move(right));
}

DolCondPtr OrCombine(DolCondPtr left, DolCondPtr right) {
  if (left == nullptr) return right;
  if (right == nullptr) return left;
  return std::make_unique<BinaryCond>(DolCondKind::kOr, std::move(left),
                                      std::move(right));
}

/// AND over `tasks` being in `state`; nullptr when the list is empty.
DolCondPtr AllInState(const std::vector<std::string>& tasks,
                      DolTaskState state) {
  DolCondPtr cond;
  for (const auto& t : tasks) {
    cond = AndCombine(std::move(cond), StateIs(t, state));
  }
  return cond;
}

std::unique_ptr<SetStatusStmt> SetStatus(int value) {
  auto stmt = std::make_unique<SetStatusStmt>();
  stmt->value = value;
  return stmt;
}

/// IF (task=state) THEN <one statement>.
DolStmtPtr IfInState(const std::string& task, DolTaskState state,
                     DolStmtPtr then_stmt) {
  auto if_stmt = std::make_unique<IfStmt>();
  if_stmt->condition = StateIs(task, state);
  if_stmt->then_branch.push_back(std::move(then_stmt));
  return if_stmt;
}

DolStmtPtr AbortOne(const std::string& task) {
  auto stmt = std::make_unique<AbortStmt>();
  stmt->tasks.push_back(task);
  return stmt;
}

DolStmtPtr CompensateOne(const std::string& task) {
  auto stmt = std::make_unique<CompensateStmt>();
  stmt->tasks.push_back(task);
  return stmt;
}

}  // namespace

const PlanTask* Plan::FindTask(const std::string& task) const {
  for (const auto& t : tasks) {
    if (EqualsIgnoreCase(t.task, task)) return &t;
  }
  return nullptr;
}

Result<std::vector<Translator::ResolvedTask>> Translator::Resolve(
    const std::vector<ElementaryQuery>& queries,
    bool multitransaction) const {
  std::vector<ResolvedTask> out;
  std::vector<const ResolvedTask*> last_resource;
  for (const auto& eq : queries) {
    MSQL_ASSIGN_OR_RETURN(const mdbs::GddDatabase* db,
                          gdd_->GetDatabase(eq.database));
    MSQL_ASSIGN_OR_RETURN(const mdbs::ServiceDescriptor* service,
                          ad_->GetService(db->service));
    ResolvedTask task;
    task.query = &eq;
    task.service = service->name;
    task.alias = eq.effective_name;
    task.task_name = "t_" + eq.effective_name;

    // A DDL verb that auto-commits on this service disables 2PC for this
    // particular statement.
    task.supports_2pc = service->Supports2pcFor(eq.statement->kind());

    bool retrieval = eq.statement->kind() == StatementKind::kSelect;
    bool has_comp = eq.compensation != nullptr;
    if (retrieval) {
      task.mode = TaskMode::kAutocommit;
    } else if (multitransaction) {
      // Every subquery of a multitransaction binds the decision.
      if (task.supports_2pc) {
        task.mode = TaskMode::kTwoPhase;
      } else if (has_comp) {
        task.mode = TaskMode::kCompensable;
      } else {
        return Status::Refused(
            "database '" + eq.effective_name +
            "' does not support 2PC and no COMP clause is given; "
            "compensation must be specified for all subqueries on such "
            "databases in a multitransaction");
      }
    } else if (!eq.vital) {
      task.mode = TaskMode::kAutocommit;
    } else if (task.supports_2pc) {
      task.mode = TaskMode::kTwoPhase;
    } else if (has_comp) {
      task.mode = TaskMode::kCompensable;
    } else {
      task.mode = TaskMode::kLastResource;
    }
    out.push_back(std::move(task));
  }
  for (const auto& t : out) {
    if (t.mode == TaskMode::kLastResource) last_resource.push_back(&t);
  }
  if (last_resource.size() > 1) {
    std::string names;
    for (const auto* t : last_resource) {
      if (!names.empty()) names += ", ";
      names += t->alias;
    }
    return Status::Refused(
        "vital set is not enforceable: databases {" + names +
        "} neither support 2PC nor provide COMP clauses; failure "
        "atomicity with respect to the vital set cannot be guaranteed");
  }
  return out;
}

void Translator::EmitOpens(const std::vector<ResolvedTask>& tasks,
                           DolProgram* program) const {
  std::set<std::string> opened;
  for (const auto& t : tasks) {
    if (!opened.insert(t.alias).second) continue;
    auto open = std::make_unique<OpenStmt>();
    open->database = t.query->database;
    open->service = t.service;
    open->alias = t.alias;
    program->statements.push_back(std::move(open));
  }
}

Result<Plan> Translator::TranslateQuery(
    const lang::ExpansionResult& expansion) const {
  if (expansion.queries.empty()) {
    return Status::InvalidArgument(
        "multiple query is pertinent on no database");
  }
  MSQL_ASSIGN_OR_RETURN(auto resolved,
                        Resolve(expansion.queries, /*multitransaction=*/false));

  Plan plan;
  bool retrieval =
      expansion.queries[0].statement->kind() == StatementKind::kSelect;
  plan.retrieval = retrieval;

  EmitOpens(resolved, &plan.program);

  // Wave 1: every task except the last-resource one, in parallel.
  auto wave = std::make_unique<ParallelStmt>();
  const ResolvedTask* last_resource = nullptr;
  std::vector<std::string> two_phase_tasks;
  std::vector<std::string> compensable_tasks;
  std::vector<std::string> vital_retrievals;
  for (const auto& t : resolved) {
    if (t.mode == TaskMode::kLastResource) {
      last_resource = &t;
      continue;
    }
    auto task = std::make_unique<TaskStmt>();
    task->name = t.task_name;
    task->nocommit = t.mode == TaskMode::kTwoPhase;
    task->target_alias = t.alias;
    task->body_sql = t.query->statement->ToSql();
    if (t.query->compensation != nullptr) {
      task->compensation_sql = t.query->compensation->ToSql();
    }
    wave->body.push_back(std::move(task));
    if (t.mode == TaskMode::kTwoPhase) two_phase_tasks.push_back(t.task_name);
    if (t.mode == TaskMode::kCompensable) {
      compensable_tasks.push_back(t.task_name);
    }
    if (retrieval && t.query->vital) vital_retrievals.push_back(t.task_name);
  }
  plan.program.statements.push_back(std::move(wave));

  if (retrieval) {
    // Retrieval decision: success iff every vital retrieval committed.
    DolCondPtr cond = AllInState(vital_retrievals, DolTaskState::kCommitted);
    if (cond == nullptr) {
      plan.program.statements.push_back(SetStatus(PlanStatus::kSuccess));
    } else {
      auto decide = std::make_unique<IfStmt>();
      decide->condition = std::move(cond);
      decide->then_branch.push_back(SetStatus(PlanStatus::kSuccess));
      decide->else_branch.push_back(SetStatus(PlanStatus::kAborted));
      plan.program.statements.push_back(std::move(decide));
    }
  } else {
    // Readiness of the regular vital subqueries.
    DolCondPtr ready =
        AndCombine(AllInState(two_phase_tasks, DolTaskState::kPrepared),
                   AllInState(compensable_tasks, DolTaskState::kCommitted));

    // Wave 2: the last-resource task runs only when everything else is
    // ready, so its (unilateral) commit can act as the global decision.
    if (last_resource != nullptr) {
      auto task = std::make_unique<TaskStmt>();
      task->name = last_resource->task_name;
      task->nocommit = false;
      task->target_alias = last_resource->alias;
      task->body_sql = last_resource->query->statement->ToSql();
      if (ready == nullptr) {
        plan.program.statements.push_back(std::move(task));
      } else {
        auto guard = std::make_unique<IfStmt>();
        guard->condition = ready->Clone();
        guard->then_branch.push_back(std::move(task));
        plan.program.statements.push_back(std::move(guard));
      }
    }

    DolCondPtr success = ready == nullptr ? nullptr : ready->Clone();
    if (last_resource != nullptr) {
      success =
          AndCombine(std::move(success),
                     StateIs(last_resource->task_name,
                             DolTaskState::kCommitted));
    }

    // Success branch: commit the prepared subqueries, then verify that
    // every one of them actually committed (a failed COMMIT after the
    // decision leaves the execution "incorrect").
    std::vector<DolStmtPtr> then_branch;
    if (!two_phase_tasks.empty()) {
      auto commit = std::make_unique<CommitStmt>();
      commit->tasks = two_phase_tasks;
      then_branch.push_back(std::move(commit));
      auto verify = std::make_unique<IfStmt>();
      verify->condition =
          AllInState(two_phase_tasks, DolTaskState::kCommitted);
      verify->then_branch.push_back(SetStatus(PlanStatus::kSuccess));
      // A commit the engine could not resolve (lost-request exhausted
      // its re-sends) leaves its task known-prepared: roll those back
      // before reporting the execution incorrect so no locks leak.
      for (const auto& t : two_phase_tasks) {
        verify->else_branch.push_back(
            IfInState(t, DolTaskState::kPrepared, AbortOne(t)));
      }
      verify->else_branch.push_back(SetStatus(PlanStatus::kIncorrect));
      then_branch.push_back(std::move(verify));
    } else {
      then_branch.push_back(SetStatus(PlanStatus::kSuccess));
    }

    // Failure branch: roll back what is prepared, compensate what has
    // committed, report abort.
    std::vector<DolStmtPtr> else_branch;
    for (const auto& t : two_phase_tasks) {
      else_branch.push_back(
          IfInState(t, DolTaskState::kPrepared, AbortOne(t)));
    }
    for (const auto& t : compensable_tasks) {
      else_branch.push_back(
          IfInState(t, DolTaskState::kCommitted, CompensateOne(t)));
    }
    else_branch.push_back(SetStatus(PlanStatus::kAborted));

    if (success == nullptr) {
      // No vital subqueries at all: always successful (§3.2.1).
      for (auto& s : then_branch) {
        plan.program.statements.push_back(std::move(s));
      }
    } else {
      auto decide = std::make_unique<IfStmt>();
      decide->condition = std::move(success);
      decide->then_branch = std::move(then_branch);
      decide->else_branch = std::move(else_branch);
      plan.program.statements.push_back(std::move(decide));
    }
  }

  // CLOSE all channels.
  auto close = std::make_unique<CloseStmt>();
  {
    std::set<std::string> seen;
    for (const auto& t : resolved) {
      if (seen.insert(t.alias).second) close->aliases.push_back(t.alias);
    }
  }
  plan.program.statements.push_back(std::move(close));

  for (const auto& t : resolved) {
    PlanTask info;
    info.task = t.task_name;
    info.database = t.query->database;
    info.effective_name = t.alias;
    info.service = t.service;
    info.vital = t.query->vital;
    info.retrieval = retrieval;
    info.mode = t.mode;
    plan.tasks.push_back(std::move(info));
  }
  return plan;
}

Result<Plan> Translator::TranslateMultiTransaction(
    const std::vector<lang::ExpansionResult>& expansions,
    const std::vector<lang::AcceptableState>& states) const {
  if (expansions.empty()) {
    return Status::InvalidArgument("multitransaction has no queries");
  }
  // Resolve per query; enforce federation-unique effective names.
  std::vector<std::vector<ResolvedTask>> waves;
  std::set<std::string> names;
  for (const auto& expansion : expansions) {
    MSQL_ASSIGN_OR_RETURN(
        auto resolved, Resolve(expansion.queries, /*multitransaction=*/true));
    for (const auto& t : resolved) {
      if (!names.insert(t.alias).second) {
        return Status::InvalidArgument(
            "database or alias '" + t.alias +
            "' is used by two queries of the multitransaction; aliases "
            "must make the names unique");
      }
    }
    waves.push_back(std::move(resolved));
  }

  Plan plan;
  plan.retrieval = false;
  std::map<std::string, const ResolvedTask*> by_alias;
  std::vector<const ResolvedTask*> all_tasks;
  for (const auto& wave : waves) {
    for (const auto& t : wave) {
      by_alias[t.alias] = &t;
      all_tasks.push_back(&t);
    }
  }
  {
    // OPEN everything up front.
    std::vector<ResolvedTask> flattened;
    for (const auto& wave : waves) {
      for (const auto& t : wave) {
        ResolvedTask copy = t;
        flattened.push_back(std::move(copy));
      }
    }
    EmitOpens(flattened, &plan.program);
  }

  // One parallel wave per member query, in statement order.
  for (const auto& wave : waves) {
    auto par = std::make_unique<ParallelStmt>();
    for (const auto& t : wave) {
      auto task = std::make_unique<TaskStmt>();
      task->name = t.task_name;
      task->nocommit = t.mode == TaskMode::kTwoPhase;
      task->target_alias = t.alias;
      task->body_sql = t.query->statement->ToSql();
      if (t.query->compensation != nullptr) {
        task->compensation_sql = t.query->compensation->ToSql();
      }
      par->body.push_back(std::move(task));
    }
    plan.program.statements.push_back(std::move(par));
  }

  // Cleanup statements for a set of non-member tasks.
  auto emit_cleanup = [](const std::vector<const ResolvedTask*>& tasks,
                         const std::set<std::string>& members,
                         std::vector<DolStmtPtr>* out) {
    for (const auto* t : tasks) {
      if (members.count(t->alias) > 0) continue;
      if (t->mode == TaskMode::kTwoPhase) {
        out->push_back(IfInState(t->task_name, DolTaskState::kPrepared,
                                 AbortOne(t->task_name)));
      } else if (t->mode == TaskMode::kCompensable) {
        out->push_back(IfInState(t->task_name, DolTaskState::kCommitted,
                                 CompensateOne(t->task_name)));
      }
      // Autocommit retrievals have no effects to undo.
    }
  };

  // Build the decision cascade from the last state inward.
  std::vector<DolStmtPtr> fallback;
  emit_cleanup(all_tasks, /*members=*/{}, &fallback);
  fallback.push_back(SetStatus(PlanStatus::kAborted));

  for (auto it = states.rbegin(); it != states.rend(); ++it) {
    std::set<std::string> members;
    DolCondPtr cond;
    bool reachable = true;
    for (const auto& db : it->databases) {
      std::string key = ToLower(db);
      auto found = by_alias.find(key);
      if (found == by_alias.end()) {
        if (names.count(key) == 0) {
          return Status::InvalidArgument(
              "acceptable state names unknown database or alias '" + db +
              "'");
        }
        reachable = false;  // database had no pertinent subquery
        break;
      }
      members.insert(key);
      const ResolvedTask* t = found->second;
      cond = AndCombine(
          std::move(cond),
          OrCombine(StateIs(t->task_name, DolTaskState::kPrepared),
                    StateIs(t->task_name, DolTaskState::kCommitted)));
    }
    if (!reachable) continue;

    std::vector<DolStmtPtr> branch;
    // Commit the prepared members.
    std::vector<std::string> to_commit;
    for (const auto& m : members) {
      const ResolvedTask* t = by_alias.at(m);
      if (t->mode == TaskMode::kTwoPhase) to_commit.push_back(t->task_name);
    }
    if (!to_commit.empty()) {
      auto commit = std::make_unique<CommitStmt>();
      commit->tasks = to_commit;
      branch.push_back(std::move(commit));
    }
    // Undo everything outside the state.
    emit_cleanup(all_tasks, members, &branch);
    if (!to_commit.empty()) {
      auto verify = std::make_unique<IfStmt>();
      verify->condition = AllInState(to_commit, DolTaskState::kCommitted);
      verify->then_branch.push_back(SetStatus(PlanStatus::kSuccess));
      for (const auto& t : to_commit) {
        verify->else_branch.push_back(
            IfInState(t, DolTaskState::kPrepared, AbortOne(t)));
      }
      verify->else_branch.push_back(SetStatus(PlanStatus::kIncorrect));
      branch.push_back(std::move(verify));
    } else {
      branch.push_back(SetStatus(PlanStatus::kSuccess));
    }

    auto decide = std::make_unique<IfStmt>();
    decide->condition = std::move(cond);
    decide->then_branch = std::move(branch);
    decide->else_branch = std::move(fallback);
    fallback.clear();
    fallback.push_back(std::move(decide));
  }
  for (auto& s : fallback) plan.program.statements.push_back(std::move(s));

  auto close = std::make_unique<CloseStmt>();
  for (const auto* t : all_tasks) close->aliases.push_back(t->alias);
  plan.program.statements.push_back(std::move(close));

  for (const auto* t : all_tasks) {
    PlanTask info;
    info.task = t->task_name;
    info.database = t->query->database;
    info.effective_name = t->alias;
    info.service = t->service;
    info.vital = t->query->vital;
    info.retrieval = t->query->statement->kind() == StatementKind::kSelect;
    info.mode = t->mode;
    plan.tasks.push_back(std::move(info));
  }
  return plan;
}

Result<Plan> Translator::TranslateDecomposedJoin(
    const lang::Decomposition& decomposition) const {
  Plan plan;
  plan.retrieval = true;
  plan.global_task = "qglobal";

  // Channel per database.
  std::vector<std::string> subquery_tasks;
  for (const auto& sub : decomposition.subqueries) {
    MSQL_ASSIGN_OR_RETURN(const mdbs::GddDatabase* db,
                          gdd_->GetDatabase(sub.database));
    auto open = std::make_unique<OpenStmt>();
    open->database = sub.database;
    open->service = db->service;
    open->alias = sub.database;
    plan.program.statements.push_back(std::move(open));
  }

  // Parallel wave: ship-whole subqueries run directly; a semi-join
  // subquery is deferred — the wave instead runs its key-extraction
  // SELECT DISTINCT at the provider (coordinator) database.
  auto wave = std::make_unique<ParallelStmt>();
  for (const auto& sub : decomposition.subqueries) {
    if (sub.semi_join) {
      auto keys = std::make_unique<TaskStmt>();
      keys->name = "k_" + sub.database;
      keys->target_alias = sub.key_provider_db;
      keys->body_sql = sub.key_select->ToSql();
      wave->body.push_back(std::move(keys));
      subquery_tasks.push_back("t_" + sub.database);
      continue;
    }
    auto task = std::make_unique<TaskStmt>();
    task->name = "t_" + sub.database;
    task->target_alias = sub.database;
    task->body_sql = sub.select->ToSql();
    subquery_tasks.push_back(task->name);
    wave->body.push_back(std::move(task));
  }
  plan.program.statements.push_back(std::move(wave));

  // Semi-join reduction phase: once a key extraction commits, install
  // the keys at the remote site, run the reduced subquery there, then
  // drop the key table. If the extraction failed, t_<db> never runs and
  // the decide condition below resolves to ABORTED.
  for (const auto& sub : decomposition.subqueries) {
    if (!sub.semi_join) continue;
    auto guard = std::make_unique<IfStmt>();
    guard->condition =
        StateIs("k_" + sub.database, DolTaskState::kCommitted);
    auto transfer = std::make_unique<TransferStmt>();
    transfer->task = "k_" + sub.database;
    transfer->target_alias = sub.database;
    transfer->table = sub.key_table;
    for (const auto& col : sub.key_schema.columns()) {
      TransferStmt::ColumnSpec spec;
      spec.name = col.name;
      spec.type_name = std::string(TypeName(col.type));
      spec.width = col.width;
      transfer->columns.push_back(std::move(spec));
    }
    guard->then_branch.push_back(std::move(transfer));
    auto task = std::make_unique<TaskStmt>();
    task->name = "t_" + sub.database;
    task->target_alias = sub.database;
    task->body_sql = sub.select->ToSql();
    guard->then_branch.push_back(std::move(task));
    auto drop_keys = std::make_unique<TaskStmt>();
    drop_keys->name = "dropk_" + sub.database;
    drop_keys->target_alias = sub.database;
    drop_keys->body_sql = "DROP TABLE " + sub.key_table;
    guard->then_branch.push_back(std::move(drop_keys));
    plan.program.statements.push_back(std::move(guard));
  }

  // Collection phase at the coordinator, guarded on all partials done.
  std::vector<DolStmtPtr> collect;
  for (const auto& sub : decomposition.subqueries) {
    auto transfer = std::make_unique<TransferStmt>();
    transfer->task = "t_" + sub.database;
    transfer->target_alias = decomposition.coordinator;
    transfer->table = sub.temp_table;
    for (const auto& col : sub.temp_schema.columns()) {
      TransferStmt::ColumnSpec spec;
      spec.name = col.name;
      spec.type_name = std::string(TypeName(col.type));
      spec.width = col.width;
      transfer->columns.push_back(std::move(spec));
    }
    collect.push_back(std::move(transfer));
  }
  {
    auto global = std::make_unique<TaskStmt>();
    global->name = plan.global_task;
    global->target_alias = decomposition.coordinator;
    global->body_sql = decomposition.global_query->ToSql();
    collect.push_back(std::move(global));
  }
  for (const auto& sub : decomposition.subqueries) {
    auto drop = std::make_unique<TaskStmt>();
    drop->name = "drop_" + sub.database;
    drop->target_alias = decomposition.coordinator;
    drop->body_sql = "DROP TABLE " + sub.temp_table;
    collect.push_back(std::move(drop));
  }
  {
    auto verify = std::make_unique<IfStmt>();
    verify->condition = StateIs(plan.global_task, DolTaskState::kCommitted);
    verify->then_branch.push_back(SetStatus(PlanStatus::kSuccess));
    verify->else_branch.push_back(SetStatus(PlanStatus::kAborted));
    collect.push_back(std::move(verify));
  }

  auto decide = std::make_unique<IfStmt>();
  decide->condition = AllInState(subquery_tasks, DolTaskState::kCommitted);
  decide->then_branch = std::move(collect);
  decide->else_branch.push_back(SetStatus(PlanStatus::kAborted));
  plan.program.statements.push_back(std::move(decide));

  auto close = std::make_unique<CloseStmt>();
  for (const auto& sub : decomposition.subqueries) {
    close->aliases.push_back(sub.database);
  }
  plan.program.statements.push_back(std::move(close));

  for (const auto& sub : decomposition.subqueries) {
    if (sub.semi_join) {
      PlanTask keys;
      keys.task = "k_" + sub.database;
      keys.database = sub.key_provider_db;
      keys.effective_name = sub.key_provider_db;
      keys.retrieval = true;
      keys.mode = TaskMode::kAutocommit;
      plan.tasks.push_back(std::move(keys));
    }
    PlanTask info;
    info.task = "t_" + sub.database;
    info.database = sub.database;
    info.effective_name = sub.database;
    info.retrieval = true;
    info.mode = TaskMode::kAutocommit;
    plan.tasks.push_back(std::move(info));
  }
  return plan;
}

Result<Plan> Translator::TranslateDataTransfer(
    const relational::InsertStmt& insert) const {
  if (insert.select_source == nullptr) {
    return Status::InvalidArgument(
        "data transfer requires an INSERT ... SELECT form");
  }
  std::string target_db = ToLower(insert.table.database);
  if (target_db.empty()) {
    return Status::InvalidArgument(
        "data transfer requires a database-qualified INSERT target");
  }
  // The source select must live in exactly one database.
  std::string source_db;
  for (const auto& ref : insert.select_source->from) {
    std::string db = ToLower(ref.database);
    if (db.empty()) {
      return Status::InvalidArgument(
          "data-transfer SELECT requires database-qualified tables");
    }
    if (source_db.empty()) {
      source_db = db;
    } else if (source_db != db) {
      return Status::InvalidArgument(
          "data-transfer SELECT must read a single source database "
          "(decompose the join into a temporary table first)");
    }
  }
  if (source_db.empty()) {
    return Status::InvalidArgument("data-transfer SELECT has no FROM");
  }
  if (source_db == target_db) {
    return Status::InvalidArgument(
        "source and target database are the same; run a local "
        "INSERT ... SELECT instead");
  }
  // Target table (and named columns) must be known to the GDD.
  MSQL_ASSIGN_OR_RETURN(const relational::TableSchema* target_schema,
                        gdd_->GetTable(target_db, insert.table.table));
  for (const auto& col : insert.columns) {
    if (!target_schema->HasColumn(col)) {
      return Status::NotFound("column '" + col + "' not in target table '" +
                              target_db + "." + insert.table.table + "'");
    }
  }
  MSQL_ASSIGN_OR_RETURN(const mdbs::GddDatabase* source_entry,
                        gdd_->GetDatabase(source_db));
  MSQL_ASSIGN_OR_RETURN(const mdbs::GddDatabase* target_entry,
                        gdd_->GetDatabase(target_db));

  Plan plan;
  plan.retrieval = false;
  {
    auto open_src = std::make_unique<OpenStmt>();
    open_src->database = source_db;
    open_src->service = source_entry->service;
    open_src->alias = source_db;
    plan.program.statements.push_back(std::move(open_src));
    auto open_dst = std::make_unique<OpenStmt>();
    open_dst->database = target_db;
    open_dst->service = target_entry->service;
    open_dst->alias = target_db;
    plan.program.statements.push_back(std::move(open_dst));
  }
  {
    // The select runs locally at the source: strip the db qualifiers.
    auto local_select = insert.select_source->CloneSelect();
    for (auto& ref : local_select->from) ref.database.clear();
    auto task = std::make_unique<TaskStmt>();
    task->name = "t_extract";
    task->target_alias = source_db;
    task->body_sql = local_select->ToSql();
    plan.program.statements.push_back(std::move(task));
  }
  {
    auto transfer = std::make_unique<TransferStmt>();
    transfer->task = "t_extract";
    transfer->target_alias = target_db;
    transfer->table = ToLower(insert.table.table);
    transfer->append = true;
    for (const auto& col : insert.columns) {
      TransferStmt::ColumnSpec spec;
      spec.name = col;
      transfer->columns.push_back(std::move(spec));
    }
    auto guard = std::make_unique<IfStmt>();
    guard->condition = StateIs("t_extract", DolTaskState::kCommitted);
    guard->then_branch.push_back(std::move(transfer));
    guard->then_branch.push_back(SetStatus(PlanStatus::kSuccess));
    guard->else_branch.push_back(SetStatus(PlanStatus::kAborted));
    plan.program.statements.push_back(std::move(guard));
  }
  {
    auto close = std::make_unique<CloseStmt>();
    close->aliases = {source_db, target_db};
    plan.program.statements.push_back(std::move(close));
  }
  PlanTask info;
  info.task = "t_extract";
  info.database = source_db;
  info.effective_name = source_db;
  info.service = source_entry->service;
  info.retrieval = true;
  info.mode = TaskMode::kAutocommit;
  plan.tasks.push_back(std::move(info));
  return plan;
}

}  // namespace msql::translator
