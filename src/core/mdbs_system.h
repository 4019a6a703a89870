#ifndef MSQL_CORE_MDBS_SYSTEM_H_
#define MSQL_CORE_MDBS_SYSTEM_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/conflict_analyzer.h"
#include "analysis/diagnostics.h"
#include "common/result.h"
#include "dol/engine.h"
#include "mdbs/auxiliary_directory.h"
#include "mdbs/catalog_ops.h"
#include "mdbs/global_data_dictionary.h"
#include "msql/ast.h"
#include "msql/cost_model.h"
#include "msql/expander.h"
#include "msql/multitable.h"
#include "netsim/environment.h"
#include "obs/profile.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "translator/translator.h"

namespace msql::core {

/// Global outcome of one MSQL input (§3.2.1): success iff all VITAL
/// subqueries committed; aborted iff all were rolled back or
/// compensated; incorrect when VITAL outcomes diverged irreparably;
/// refused when the plan could not guarantee the requested consistency.
enum class GlobalOutcome { kSuccess, kAborted, kIncorrect, kRefused };

std::string_view GlobalOutcomeName(GlobalOutcome outcome);

/// How one scoped database's subquery ended (§3.2.1): the per-task
/// verdict the global outcome was decided from. Also the row format of
/// the query log's `verdicts` field.
struct DatabaseVerdict {
  std::string database;  // effective name in the USE scope
  std::string service;
  std::string task;      // DOL task name
  bool vital = false;
  dol::DolTaskState state = dol::DolTaskState::kNotRun;
};

/// Everything the coordinator reports about one executed MSQL input.
struct ExecutionReport {
  GlobalOutcome outcome = GlobalOutcome::kSuccess;
  /// Refusal / abort detail (OK for clean successes).
  Status detail;
  /// DOLSTATUS the program ended with (the MSQL return code, §4.1).
  int dol_status = 0;
  /// Retrieval answer of a multiple query: one table per database.
  lang::Multitable multitable;
  /// Answer of a decomposed multidatabase join (single merged table).
  relational::ResultSet join_result;
  bool is_join = false;
  /// Full task-level trace of the run.
  dol::DolRunResult run;
  /// The generated DOL program text (what §4.3 prints).
  std::string dol_text;
  /// Scope databases discarded as non-pertinent during disambiguation.
  std::vector<std::string> non_pertinent;
  /// Rows moved by a cross-database data transfer (INSERT ... SELECT).
  int64_t rows_transferred = 0;
  /// Interdatabase triggers fired by this input (in firing order).
  std::vector<std::string> fired_triggers;
  /// Re-sends the DOL engine performed under the retry policy.
  int64_t retries_performed = 0;
  /// kQueryTxnState re-probes issued to resolve timed-out calls.
  int64_t reprobes_performed = 0;
  /// Services whose NON-VITAL subqueries were lost to unavailability:
  /// the run degraded (their answers/effects are missing) but the
  /// global outcome was not affected (§3.2.1).
  std::vector<std::string> degraded_services;
  /// Per-database verdicts of the plan's tasks, in plan order (empty
  /// for inputs that never reach a plan, e.g. refusals and DDL).
  std::vector<DatabaseVerdict> verdicts;
  /// Non-fatal findings of the static checker (warnings/notes; errors
  /// abort execution before a report exists).
  std::vector<analysis::Diagnostic> diagnostics;
  /// Indented text tree of this input's trace spans (DESIGN.md §9).
  /// Filled only when the environment tracer is enabled and this is the
  /// outermost MSQL input — nested view/trigger executions appear as
  /// subtrees of the outer input instead of reporting their own.
  std::string trace_text;
  /// Local physical plans of this input's SELECT, UPDATE and DELETE
  /// tasks, one block per task in task-name order (the shell's `\plan`). Filled only when
  /// plan collection is on (MultidatabaseSystem::set_collect_plans).
  std::string plan_text;
  /// EXPLAIN ANALYZE rendering of this input (DESIGN.md §11): phase
  /// breakdown, per-site attribution, 2PC latency, critical path.
  /// Filled only when profile collection is on
  /// (MultidatabaseSystem::set_collect_profiles, which needs the
  /// tracer) and this is the outermost input.
  std::string profile_text;
  /// Cost breakdown of a decomposed multidatabase join: the chosen
  /// coordinator, per-subquery movement strategy (ship-whole vs.
  /// semi-join) and estimated transfer costs — or the reason the
  /// optimizer fell back to the paper heuristics. Filled only while the
  /// cost-based optimizer is enabled (set_cost_based_optimizer).
  std::string cost_text;
};

/// What `Analyze` (the `msql_lint` / `\check` path) reports about one
/// MSQL input without executing it: static diagnostics, the would-be
/// DOL program, and whether the translator would refuse the input.
struct AnalysisReport {
  /// "query", "multitransaction", "incorporate", ... (MsqlInput kind).
  std::string kind;
  /// Checker (MS1xx) findings plus, when translation succeeds, the DOL
  /// verifier's (DL2xx) verdict over the generated plan.
  analysis::DiagnosticList diagnostics;
  /// Generated DOL program text ("" when not translatable).
  std::string dol_text;
  bool translated = false;
  /// The plan was refused (unenforceable vital set etc.): the input is
  /// well-formed but the requested consistency cannot be guaranteed.
  bool refused = false;
  Status refusal;
  /// Hard failure past the static checks (expansion/translation error
  /// the checker did not anticipate).
  Status error;
  /// Predicted per-site read/write sets and acquisition order of the
  /// generated plan (present iff `translated`). Feeds the DL3xx
  /// conflict diagnostics, `msql_lint --conflicts` and the scheduler's
  /// conflict-aware admission.
  std::optional<analysis::AccessSummary> summary;
  /// Cost breakdown of a would-be decomposed join (see
  /// ExecutionReport::cost_text).
  std::string cost_text;
};

/// A frontend-compiled MSQL input: the translated DOL plan plus
/// everything needed to assemble its ExecutionReport once a driver has
/// run the plan. Produced by Prepare/PrepareInput, consumed by
/// FinishPreparedRun. The serial entry points use this split
/// internally; the concurrent federation server uses it to prepare each
/// session's input at admission, step the plan through
/// DolEngine::BeginRun/Deliver interleaved with other sessions, and
/// assemble the report when the program completes.
struct PreparedInput {
  lang::MsqlInput::Kind kind = lang::MsqlInput::Kind::kQuery;
  translator::Plan plan;
  /// Scope databases discarded as non-pertinent during disambiguation.
  std::vector<std::string> non_pertinent;
  /// Static checker (MS1xx) findings. Warnings surface on the final
  /// report; errors mean there is no plan (PrepareInput returns them as
  /// data, Prepare and Execute fail the input with kInvalidArgument).
  analysis::DiagnosticList diagnostics;
  /// Expansions behind the plan, one per member query (none for
  /// decomposed joins and data transfers): GDD sync after the run, and
  /// the interdatabase trigger source of a plain query.
  std::vector<lang::ExpansionResult> expansions;
  /// INSERT..SELECT data transfer: fix up rows_transferred post-run.
  bool data_transfer = false;
  /// Cost breakdown of a decomposed join, forwarded to the report.
  std::string cost_text;
  /// Input resolved entirely at prepare time (refusals): nothing to
  /// run, report this as-is.
  std::optional<ExecutionReport> immediate;
};

/// The multidatabase system of Figure 1: MSQL front end, translator,
/// DOL engine and catalog, wired to a simulated multi-service
/// environment. One instance = one federation.
class MultidatabaseSystem {
 public:
  explicit MultidatabaseSystem(std::string coordinator_site = "mdbs");

  MultidatabaseSystem(const MultidatabaseSystem&) = delete;
  MultidatabaseSystem& operator=(const MultidatabaseSystem&) = delete;

  netsim::Environment& environment() { return env_; }
  mdbs::AuxiliaryDirectory& auxiliary_directory() { return ad_; }
  mdbs::GlobalDataDictionary& gdd() { return gdd_; }

  /// Retry discipline applied by the DOL engine to every plan run.
  void set_retry_policy(dol::RetryPolicy policy) {
    retry_policy_ = policy;
  }
  const dol::RetryPolicy& retry_policy() const { return retry_policy_; }

  /// Creates an engine with `profile`, wraps it in a LAM at `site` and
  /// registers the service (the INCORPORATE statement still has to be
  /// run to make the federation aware of it).
  Status AddService(std::string_view service, std::string_view site,
                    relational::CapabilityProfile profile,
                    netsim::LamCostModel cost_model = {});

  /// Direct engine access (seeding data, injecting failures in tests).
  Result<relational::LocalEngine*> GetEngine(std::string_view service);

  /// Toggles local plan collection on every registered service: each
  /// SELECT, UPDATE and DELETE task's result then carries its planner
  /// rendering, which AssembleRunReport gathers into
  /// ExecutionReport::plan_text.
  void set_collect_plans(bool on);
  bool collect_plans() const { return collect_plans_; }

  /// Toggles per-input profiling (ExecutionReport::profile_text). The
  /// profiler reads the input's span subtree, so it only produces
  /// output while the environment tracer is enabled.
  void set_collect_profiles(bool on) { collect_profiles_ = on; }
  bool collect_profiles() const { return collect_profiles_; }

  /// Toggles the cost-based distributed optimizer for decomposed joins
  /// (DESIGN.md §14). On by default, but each query silently falls back
  /// to the paper heuristics until fresh ANALYZE statistics exist for
  /// every involved table, so behavior only changes after ANALYZE runs.
  /// Off = the provable paper-heuristic path, pinned by the distopt
  /// differential tests.
  void set_cost_based_optimizer(bool on) { cost_based_optimizer_ = on; }
  bool cost_based_optimizer() const { return cost_based_optimizer_; }

  /// Structured JSONL audit log of executed inputs (DESIGN.md §11).
  /// Disabled by default; the shell's `\qlog` and tests enable it.
  obs::QueryLog& query_log() { return query_log_; }
  const obs::QueryLog& query_log() const { return query_log_; }

  /// Runs a ';'-separated sequence of local SQL statements directly on
  /// one service's database (bootstrap helper for examples/tests; this
  /// bypasses the federation exactly like a local DBA would).
  Status RunLocalSql(std::string_view service, std::string_view database,
                     std::string_view sql_script);

  // -- MSQL entry points ----------------------------------------------------

  /// Parses and executes exactly one MSQL input item.
  Result<ExecutionReport> Execute(std::string_view msql_text);

  /// Parses and executes a script; stops at the first hard error.
  Result<std::vector<ExecutionReport>> ExecuteScript(
      std::string_view msql_text);

  /// Statically analyzes exactly one MSQL input without executing it:
  /// runs the same front end as Prepare (MS1xx checker, expansion or
  /// decomposition, translation) and, when the input translates, the
  /// DL2xx plan verifier and DL3xx conflict analysis over the generated
  /// DOL. The session scope is saved and restored around it.
  Result<AnalysisReport> Analyze(std::string_view msql_text);

  /// Analyzes a script. Catalog-shaping inputs (INCORPORATE, IMPORT,
  /// CREATE MULTIDATABASE/VIEW/TRIGGER, ...) are *executed* so later
  /// queries are checked against the catalogs they would see; queries
  /// and multitransactions are analyzed only.
  Result<std::vector<AnalysisReport>> AnalyzeScript(
      std::string_view msql_text);

  Result<ExecutionReport> ExecuteQuery(const lang::MsqlQuery& query);
  Result<ExecutionReport> ExecuteMultiTransaction(
      const lang::MultiTransaction& mt);

  // -- Prepared execution (the concurrent server's protocol) ---------------

  /// Parses exactly one MSQL input and runs the whole front end on it
  /// (scope resolution, checking, expansion, translation), yielding a
  /// plan an external driver can run later. Only queries and
  /// multitransactions are preparable — catalog-shaping inputs and view
  /// queries execute serially (kInvalidArgument). Checker errors fail
  /// the input with kInvalidArgument; refusals come back as `immediate`.
  Result<PreparedInput> Prepare(std::string_view msql_text);
  /// The front end of Prepare and Analyze (Execute compiles through the
  /// same per-kind steps), for an already-parsed input. Unlike Prepare
  /// it returns checker errors as data: a result whose `diagnostics`
  /// has errors carries no plan.
  Result<PreparedInput> PrepareInput(const lang::MsqlInput& input);

  /// Translator-bug oracle: every prepared plan must pass the DOL
  /// verifier before it is allowed near the federation. A rejection
  /// here is a defect in the translator, not in the user's program.
  Status VerifyPreparedPlan(const translator::Plan& plan);

  /// Assembles the ExecutionReport of a prepared input whose plan a
  /// driver has run (`run` being DolEngine::Run/TakeResult output),
  /// including post-run GDD maintenance and trigger firing.
  Result<ExecutionReport> FinishPreparedRun(PreparedInput prepared,
                                            Result<dol::DolRunResult> run);

  /// Appends one query-log record for an executed input (no-op while
  /// the log is disabled). Only top-level inputs are logged — nested
  /// view/trigger executions are part of their outer input's record.
  void LogInput(lang::MsqlInput::Kind kind, const ExecutionReport& report);
  Status ExecuteIncorporate(const lang::IncorporateStmt& stmt);
  Result<std::vector<std::string>> ExecuteImport(const lang::ImportStmt& stmt);
  Result<std::vector<std::string>> ExecuteAnalyze(const lang::AnalyzeStmt& stmt);

  /// Snapshots the cost-based optimizer's inputs: fresh GDD statistics,
  /// per-link transfer parameters from the netsim topology and observed
  /// median latencies from the health registry (DESIGN.md §14).
  lang::CostContext BuildCostContext() const;

  // -- Multidatabases, views, triggers (§2 extensions) ---------------------

  Status ExecuteCreateMultidatabase(const lang::CreateMultidatabaseStmt& s);
  Status ExecuteDropMultidatabase(const lang::DropMultidatabaseStmt& s);

  /// Registers a multidatabase view (stored multiple query).
  Status ExecuteCreateView(const lang::CreateViewStmt& s);
  Status ExecuteDropView(const lang::DropViewStmt& s);
  bool HasView(std::string_view name) const;

  /// Registers an interdatabase trigger.
  Status ExecuteCreateTrigger(const lang::CreateTriggerStmt& s);
  Status ExecuteDropTrigger(const lang::DropTriggerStmt& s);
  std::vector<std::string> TriggerNames() const;

  /// The session's current scope (set by the last USE).
  const lang::UseClause& current_scope() const { return current_scope_; }

 private:
  /// Applies USE CURRENT inheritance and records the new current scope.
  Result<lang::MsqlQuery> ResolveScope(const lang::MsqlQuery& query);

  /// Dispatches one parsed input (body of Execute, minus the tracing).
  Result<ExecutionReport> ExecuteInput(const lang::MsqlInput& input);

  /// Executes one catalog-shaping input (INCORPORATE, IMPORT, ANALYZE,
  /// CREATE/DROP MULTIDATABASE, VIEW, TRIGGER). They produce no plan.
  Status ExecuteCatalogInput(const lang::MsqlInput& input);

  /// The serial run path: applies the Prepare contract to a front-end
  /// result, verifies the plan, runs it and assembles the report.
  Result<ExecutionReport> RunPrepared(Result<PreparedInput> prepared);

  /// Closes the input-level span at the run's simulated makespan; at the
  /// outermost input it renders the input's trace (and, when profile
  /// collection is on, its profile) into the report and advances the
  /// tracer's session offset so the next input lays out after this one
  /// on the simulated timeline.
  void FinishInputSpan(obs::ScopedSpan* span, bool top_level,
                       ExecutionReport* report);

  /// Input entry: whether this is the outermost traced input. At the
  /// outermost input it snapshots the metrics counters so the profiler
  /// can attribute counter growth to the input.
  bool BeginInput();

  /// Analyzes one parsed input (helper of Analyze/AnalyzeScript).
  Result<AnalysisReport> AnalyzeInput(const lang::MsqlInput& input);

  /// Name of the multidatabase view a query selects from ("" when its
  /// FROM is not a single view name).
  std::string ViewNameOf(const lang::MsqlQuery& query) const;

  /// Front halves of the two preparable input kinds: everything up to
  /// (and including) translation.
  Result<PreparedInput> PrepareQuery(const lang::MsqlQuery& query);
  Result<PreparedInput> PrepareMultiTransaction(
      const lang::MultiTransaction& mt);

  /// Turns a finished (or failed) DOL run of `plan` into the raw
  /// ExecutionReport: outcome/dol_status mapping, per-database verdicts,
  /// degradation notes and retrieval assembly. Pure function of its
  /// arguments — FinishPreparedRun layers the catalog side effects on
  /// top.
  ExecutionReport AssembleRunReport(const translator::Plan& plan,
                                    std::vector<std::string> non_pertinent,
                                    Result<dol::DolRunResult> run);

  /// Applies committed DDL tasks to the GDD so it keeps mirroring the
  /// local conceptual schemas.
  Status SyncGddAfterDdl(const dol::DolRunResult& run,
                         const lang::ExpansionResult& expansion);

  /// Accumulates committed DML rows-affected into the GDD's per-table
  /// write-churn counters, so heavy churn stales ANALYZE snapshots and
  /// re-engages the per-query heuristic fallback.
  void RecordDmlChurn(const lang::ExpansionResult& expansion,
                      const dol::DolRunResult& run);

  /// Runs a query whose FROM names a multidatabase view: evaluates the
  /// stored definition, then applies the outer query to each element of
  /// the resulting multitable at the MDBS level.
  Result<ExecutionReport> ExecuteViewQuery(const lang::MsqlQuery& query,
                                           const std::string& view_name);

  /// Fires interdatabase triggers matching the committed DML tasks of
  /// `expansion`, appending fired names to `report`.
  Status FireTriggers(const lang::ExpansionResult& expansion,
                      ExecutionReport* report);

  netsim::Environment env_;
  mdbs::AuxiliaryDirectory ad_;
  mdbs::GlobalDataDictionary gdd_;
  dol::RetryPolicy retry_policy_;
  lang::UseClause current_scope_;
  std::map<std::string, std::shared_ptr<const lang::MsqlQuery>> views_;
  std::map<std::string, lang::CreateTriggerStmt> triggers_;
  /// Re-entrancy guards for views-over-views and trigger cascades.
  int view_depth_ = 0;
  int trigger_depth_ = 0;
  bool collect_plans_ = false;
  bool collect_profiles_ = false;
  bool cost_based_optimizer_ = true;
  /// Counter values at top-level input entry (profile delta baseline).
  std::map<std::string, int64_t, std::less<>> profile_counters_before_;
  obs::QueryLog query_log_;
};

}  // namespace msql::core

#endif  // MSQL_CORE_MDBS_SYSTEM_H_
