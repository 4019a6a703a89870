#ifndef MSQL_RELATIONAL_ENGINE_H_
#define MSQL_RELATIONAL_ENGINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "relational/database.h"
#include "relational/executor.h"
#include "relational/result_set.h"
#include "relational/storage_engine.h"
#include "relational/txn.h"

namespace msql::relational {

/// Commit-protocol and connection capabilities of one LDBMS.
///
/// This is the heterogeneity the paper's semantics hinge on (§3.1,
/// §3.2.2): whether the system exposes a prepared-to-commit state
/// (COMMITMODE NOCOMMIT vs automatic commit), whether it serves multiple
/// databases (CONNECTMODE), and what DDL does to open transactions —
/// "one of the DBMSs allows DDL commands to be rolled back while another
/// automatically commits them together with all previously issued
/// uncommitted statements".
struct CapabilityProfile {
  std::string dbms_family = "generic";
  /// Visible prepared-to-commit state (user-controlled 2PC).
  bool supports_two_phase_commit = true;
  /// CONNECT (several databases per service) vs NOCONNECT (one default).
  bool supports_multiple_databases = true;
  /// DDL statements can be rolled back inside a transaction.
  bool ddl_rollbackable = true;
  /// DDL commits all previously issued uncommitted statements, then
  /// itself (mutually exclusive with ddl_rollbackable in practice).
  bool ddl_commits_prior_work = false;

  /// Ingres-like: 2PC, DDL rollbackable.
  static CapabilityProfile IngresLike();
  /// Oracle-like: 2PC, DDL auto-commits itself and prior work.
  static CapabilityProfile OracleLike();
  /// Sybase-like (as configured in the paper's prototype): automatic
  /// commit only — no visible prepared state.
  static CapabilityProfile SybaseLike();
};

/// Points where a failure can be injected to exercise the §3.2/§3.3
/// recovery paths ("local conflicts, failure, deadlock, etc.").
/// kNextUndo fires halfway through the next rollback's undo application,
/// leaving the database detectably half-rolled-back (kCorrupted).
enum class FailPoint {
  kNone,
  kNextStatement,
  kNextPrepare,
  kNextCommit,
  kNextUndo,
};

using SessionId = uint64_t;

/// Cumulative counters (read by benches and the netsim cost model).
struct EngineStats {
  int64_t statements_executed = 0;
  int64_t rows_read = 0;
  int64_t rows_written = 0;
  int64_t commits = 0;
  int64_t rollbacks = 0;
  int64_t prepares = 0;
  int64_t injected_failures = 0;
};

/// One autonomous local DBMS: databases, sessions, transactions, SQL
/// execution — the thing a LAM wraps.
///
/// Error containment: any failing statement aborts the enclosing local
/// transaction (the paper's LDBMSs "may be forced to abort their local
/// subqueries"); the session then returns to idle/autocommit until the
/// next BEGIN.
class LocalEngine {
 public:
  LocalEngine(std::string service_name, CapabilityProfile profile);

  LocalEngine(const LocalEngine&) = delete;
  LocalEngine& operator=(const LocalEngine&) = delete;

  const std::string& service_name() const { return service_name_; }
  const CapabilityProfile& profile() const { return profile_; }
  const EngineStats& stats() const { return stats_; }

  // -- Persistence --------------------------------------------------------

  /// Turns this engine durable: every database created afterwards is
  /// paged (bounded by the configured buffer pool) and WAL-logged.
  /// Must be called before any database exists. Call Recover() next
  /// when the root may already hold a WAL from a previous incarnation.
  Status AttachStorage(StorageConfig config);

  /// The storage manager, or nullptr for a purely in-memory engine.
  StorageManager* storage() { return storage_.get(); }

  /// WAL flush + bounded page writeback + checkpoint record.
  Status Checkpoint(size_t max_pages = SIZE_MAX);

  /// Power-cut simulation: sessions, locks, the in-memory catalog, the
  /// buffer pool and the unflushed WAL tail all vanish. Requires
  /// attached storage (an in-memory engine cannot survive this).
  void SimulateCrash();

  /// Replays the WAL: rebuilds databases/tables/views/indexes, redoes
  /// committed and prepared work, and re-instates prepared transactions
  /// (sessions, undo logs, exclusive locks) so the 2PC coordinator can
  /// still resolve them. Clears corruption marks — a half-rolled-back
  /// transaction was active at the crash, so its effects are discarded.
  Status Recover();

  // -- Database administration ------------------------------------------

  Status CreateDatabase(std::string_view name);
  Status DropDatabase(std::string_view name);
  bool HasDatabase(std::string_view name) const;
  Result<Database*> GetDatabase(std::string_view name);
  Result<const Database*> GetDatabaseConst(std::string_view name) const;
  std::vector<std::string> DatabaseNames() const;

  // -- Sessions -----------------------------------------------------------

  /// Opens a session against `db_name`. For NOCONNECT engines, an empty
  /// name selects the single (default) database and a non-empty name
  /// must match it.
  Result<SessionId> OpenSession(std::string_view db_name);
  Status CloseSession(SessionId session);

  /// Output schema of a local view, derived statically from its
  /// definition (used by IMPORT VIEW to export Local Conceptual Schema
  /// information without materializing the view).
  Result<TableSchema> DescribeView(std::string_view db_name,
                                   std::string_view view) const;

  // -- Execution ----------------------------------------------------------

  /// Parses and executes one statement. Transaction-control verbs
  /// (BEGIN/COMMIT/ROLLBACK/PREPARE) are routed to the methods below.
  Result<ResultSet> Execute(SessionId session, std::string_view sql);

  /// Executes an already-parsed statement.
  Result<ResultSet> ExecuteStatement(SessionId session,
                                     const Statement& stmt);

  /// EXPLAIN: parses `sql` (a SELECT, UPDATE or DELETE) and returns the
  /// local planner's text rendering of its physical plan without
  /// running it; for UPDATE and DELETE that is the plan that picks the
  /// target rows. Uses the session's open transaction when there is
  /// one, a short-lived read transaction otherwise.
  Result<std::string> ExplainSql(SessionId session, std::string_view sql);

  // -- Observability / plan text ------------------------------------------

  /// Points executor spans ("sql.plan"/"sql.join") and counters at the
  /// federation's tracer/metrics (null = no instrumentation).
  void SetObservability(obs::Tracer* tracer, obs::MetricsRegistry* metrics) {
    tracer_ = tracer;
    metrics_ = metrics;
    if (storage_ != nullptr) {
      storage_->SetMetrics(metrics);
      storage_->SetTracer(tracer);
    }
  }

  /// When true, every SELECT, UPDATE and DELETE result carries its plan
  /// text (`\plan`).
  void set_collect_plan_text(bool on) { collect_plan_text_ = on; }
  bool collect_plan_text() const { return collect_plan_text_; }

  /// Starts an explicit transaction.
  Status Begin(SessionId session);
  /// Moves the explicit transaction to prepared-to-commit. Fails with
  /// kTransactionError on engines without 2PC support.
  Status Prepare(SessionId session);
  /// Commits (from active or prepared).
  Status Commit(SessionId session);
  /// Rolls back (from active or prepared).
  Status Rollback(SessionId session);

  /// State of the session's current/last transaction (kCommitted when
  /// the session has only done autocommit work).
  Result<TxnState> GetTxnState(SessionId session) const;

  /// True if the session has an open explicit transaction.
  Result<bool> InTransaction(SessionId session) const;

  // -- Corruption containment ----------------------------------------------

  /// True when a failed mid-rollback left `db_name` half-rolled-back.
  /// Statements against a corrupted database refuse with kCorrupted
  /// instead of reading inconsistent rows.
  bool IsCorrupted(std::string_view db_name) const;

  /// Databases currently marked corrupted (name order).
  std::vector<std::string> CorruptedDatabases() const;

  /// Clears the corruption marks (after an external repair — for
  /// storage-backed engines, Recover() rebuilds a consistent state from
  /// the WAL and calls this).
  void ClearCorruption() { corrupted_dbs_.clear(); }

  // -- Concurrency ---------------------------------------------------------

  /// The engine's lock table (wait-policy switch, introspection).
  LockManager& lock_manager() { return locks_; }
  const LockManager& lock_manager() const { return locks_; }

  /// Local sessions whose transactions blocked the most recent kBusy
  /// verdict (resolved from LockManager::last_conflict; empty when the
  /// blocking transactions already ended). The LAM forwards these to
  /// the coordinator, which turns them into waits-for edges.
  std::vector<SessionId> BlockingSessions() const;

  // -- Failure injection ---------------------------------------------------

  /// Arms a one-shot failure at the given point (engine-wide).
  void InjectFailure(FailPoint point) { fail_point_ = point; }

  /// Every statement/prepare/commit independently fails with
  /// probability `p` (deterministic given `seed`). p = 0 disables.
  void SetFailureProbability(double p, uint64_t seed);

 private:
  struct Session {
    SessionId id = 0;
    std::string db_name;
    std::unique_ptr<Transaction> txn;  // open explicit txn, or null
    bool explicit_txn = false;
    TxnState last_state = TxnState::kCommitted;
  };

  Result<Session*> FindSession(SessionId id);
  Result<const Session*> FindSessionConst(SessionId id) const;

  /// True (and consumes the arming) if a failure should fire at `point`.
  bool ShouldFail(FailPoint point);

  /// Finishes `txn` with rollback, releasing locks.
  Status AbortTxn(Session* session);
  /// Finishes `txn` with commit, releasing locks.
  Status CommitTxn(Session* session);

  /// Runs `stmt` in the session's transaction; `is_ddl` marks table,
  /// index and view DDL.
  Result<ResultSet> ExecuteInTxn(Session* session, const Statement& stmt,
                                 bool is_ddl);

  std::string service_name_;
  CapabilityProfile profile_;
  /// Declared before databases_ so paged tables and indexes (whose
  /// destructors discard their buffered pages) die before the pool.
  std::unique_ptr<StorageManager> storage_;
  std::map<std::string, std::unique_ptr<Database>> databases_;
  /// Databases poisoned by a failed rollback: name → diagnostic.
  std::map<std::string, std::string> corrupted_dbs_;
  std::map<SessionId, Session> sessions_;
  LockManager locks_;
  TxnId next_txn_id_ = 1;
  SessionId next_session_id_ = 1;
  EngineStats stats_;

  FailPoint fail_point_ = FailPoint::kNone;
  double failure_probability_ = 0.0;
  Rng failure_rng_{0};

  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  bool collect_plan_text_ = false;
};

}  // namespace msql::relational

#endif  // MSQL_RELATIONAL_ENGINE_H_
