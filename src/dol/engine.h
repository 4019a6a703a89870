#ifndef MSQL_DOL_ENGINE_H_
#define MSQL_DOL_ENGINE_H_

#include <coroutine>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "dol/ast.h"
#include "dol/task.h"
#include "netsim/environment.h"
#include "relational/result_set.h"

namespace msql::dol {

/// Retry discipline of the coordinator (simulated-clock semantics).
///
/// Undelivered failures (transient rejections, unreachable sites) are
/// re-sent up to `max_attempts` times with exponential backoff charged
/// to the simulated clock (1 ms, doubling, capped at 64 ms). Timed-out
/// calls are *not* blindly re-sent — the request may have been
/// executed — except for idempotent probe verbs; commit/prepare
/// timeouts are instead resolved through a kQueryTxnState re-probe when
/// `reprobe_on_timeout` is set, which is what keeps a lost commit ACK
/// from being declared incorrect.
struct RetryPolicy {
  /// Total send attempts per call (1 = no retry).
  int max_attempts = 1;
  /// Resolve commit/prepare timeouts by re-probing the transaction
  /// state instead of assuming failure.
  bool reprobe_on_timeout = true;

  /// No retries, no re-probing: every fault is taken at face value.
  static RetryPolicy None() {
    RetryPolicy p;
    p.max_attempts = 1;
    p.reprobe_on_timeout = false;
    return p;
  }
  /// `attempts` sends, re-probing enabled.
  static RetryPolicy WithAttempts(int attempts) {
    RetryPolicy p;
    p.max_attempts = attempts;
    return p;
  }
};

/// Final record of one task's execution.
struct TaskOutcome {
  std::string name;
  /// Service and database of the channel the task ran on (from the
  /// OPEN the task's alias resolved to) — what the profiler joins task
  /// rows to sites with.
  std::string service;
  std::string database;
  DolTaskState state = DolTaskState::kNotRun;
  /// Failure detail of the last operation that aborted the task (OK for
  /// clean runs).
  Status last_status;
  /// Retrieval result (SELECT tasks) or rows-affected (DML tasks).
  relational::ResultSet result;
  int64_t start_micros = 0;
  int64_t end_micros = 0;
};

/// Result of running one DOL program.
struct DolRunResult {
  /// Value of DOLSTATUS when the program ended (0 = success by the
  /// convention of the §4.3 listing; the translator uses 0 = committed,
  /// 1 = aborted, 2 = incorrect).
  int dol_status = 0;
  std::map<std::string, TaskOutcome> tasks;
  /// Simulated makespan of the whole program.
  int64_t makespan_micros = 0;
  /// Network traffic incurred by this run alone, summed from the per-call
  /// accounting (NOT a delta of the global network counters, which would
  /// misattribute any unrelated traffic on the same environment).
  int64_t messages = 0;
  int64_t bytes = 0;
  /// Re-sends performed under the retry policy (0 for clean runs).
  int64_t retries = 0;
  /// Re-probes (kQueryTxnState) issued to resolve timed-out calls.
  int64_t reprobes = 0;
  /// Channels whose OPEN failed, with the failure detail — previously a
  /// poisoned channel was silent and degraded runs were undiagnosable.
  std::map<std::string, Status> failed_channels;

  const TaskOutcome* FindTask(const std::string& name) const;

  /// Human-readable run trace: per-task state, failure detail and
  /// simulated interval, plus the program totals.
  std::string ToString() const;
};

/// Interpreter for DOL programs against the simulated multi-system
/// environment (the role Narada's engine plays in Figure 1).
///
/// Timeline semantics: statements execute sequentially on a simulated
/// clock; a PARBEGIN block forks the clock — every contained statement
/// starts at the block's start time and the block completes at the
/// latest end time, which is how the engine exposes the parallelism the
/// paper attributes its optimization opportunities to.
///
/// Failure semantics: a failed OPEN poisons its channel (tasks targeting
/// it abort rather than erroring the program); any failed local
/// operation aborts its task; condition logic in the plan decides what
/// happens next. Only protocol violations (committing an aborted task,
/// compensating a task without a COMPENSATION block) and compensation
/// failures abort the whole program with an error, since no sound plan
/// reaches them.
class DolEngine {
 public:
  explicit DolEngine(netsim::Environment* env, RetryPolicy policy = {})
      : env_(env), policy_(policy) {}
  ~DolEngine() { AbandonRun(); }

  DolEngine(const DolEngine&) = delete;
  DolEngine& operator=(const DolEngine&) = delete;

  const RetryPolicy& retry_policy() const { return policy_; }

  /// Runs `program` from simulated time 0. The engine is reusable: all
  /// per-run state (channels, tasks, compensations, counters, status)
  /// is reset at entry, so one engine instance can run a sequence of
  /// programs without leaking prior-run state into the next result.
  ///
  /// Implemented on top of the stepper below — BeginRun, then a loop
  /// that services each pending RPC against the environment in program
  /// order, which reproduces the pre-stepper run-to-completion
  /// interpreter operation for operation.
  Result<DolRunResult> Run(const DolProgram& program);

  // -- Resumable stepper (DESIGN.md §12) ---------------------------------
  //
  // A run is a cooperative task: the interpreter executes until it needs
  // a remote call, then parks with that call exposed through pending().
  // The driver (Run above, or the concurrent federation scheduler)
  // decides when and with what outcome the call completes and resumes
  // the run with Deliver. At most one RPC is pending per engine — DOL
  // PARBEGIN keeps its forked-clock semantics (every branch starts at
  // the block's start time), so branches are *stepped* sequentially
  // while their simulated intervals overlap.

  /// One remote call the parked run is waiting on.
  struct PendingRpc {
    std::string service;
    netsim::LamRequest request;
    /// Simulated time the coordinator issues the call.
    int64_t at = 0;
  };

  /// Starts `program` at simulated time `start_micros` and executes up
  /// to the first pending RPC (or to completion for programs that never
  /// call out). `program` must outlive the run. Fails if a run is
  /// already in flight.
  Status BeginRun(const DolProgram& program, int64_t start_micros = 0);

  /// A run has been started and not yet collected with TakeResult.
  bool running() const { return running_; }
  /// The run finished (TakeResult is ready).
  bool done() const { return running_ && root_ && root_->Done(); }
  /// The RPC the run is parked on (nullptr when !running or done).
  const PendingRpc* pending() const {
    return pending_ ? &pending_->rpc : nullptr;
  }

  /// Resumes the parked run with the outcome of its pending call;
  /// afterwards the engine is either done() or parked on a new RPC.
  void Deliver(Result<netsim::CallOutcome> outcome);

  /// Collects the finished run's result and ends the run.
  Result<DolRunResult> TakeResult();

  /// Drops an in-flight run (frames unwound, no result). No-op when no
  /// run is active.
  void AbandonRun();

 private:
  struct Channel {
    std::string service;
    std::string database;
    relational::SessionId session = 0;
    bool failed = false;     // OPEN failed or channel closed
    Status open_status;      // failure detail
  };

  /// Awaiting this parks the run and exposes the call via pending();
  /// Deliver fills `outcome` and resumes.
  struct RpcAwaiter {
    DolEngine* engine;
    PendingRpc rpc;
    std::optional<Result<netsim::CallOutcome>> outcome;

    bool await_ready() { return false; }
    void await_suspend(std::coroutine_handle<> handle);
    Result<netsim::CallOutcome> await_resume() {
      return std::move(*outcome);
    }
  };

  /// The parked run: the continuation to resume and the awaiter slot the
  /// delivered outcome goes into.
  struct PendingState {
    PendingRpc rpc;
    std::coroutine_handle<> continuation;
    RpcAwaiter* awaiter = nullptr;
  };

  /// Clears every piece of per-run state; called at the top of BeginRun.
  void ResetRunState();

  /// Root coroutine of one run: the statement loop of the pre-stepper
  /// Run, ending at the program's final simulated time.
  DolTask<int64_t> RunProgram(const DolProgram& program);

  /// Executes one statement starting at `at`; returns its end time.
  DolTask<int64_t> ExecStmt(const DolStmt& stmt, int64_t at);

  DolTask<int64_t> ExecOpen(const OpenStmt& stmt, int64_t at);
  /// Best-effort rollback of a channel's possibly-open transaction after
  /// a timed-out call; returns the rollback's end time.
  DolTask<int64_t> DrainTxn(Channel* channel, int64_t when);
  DolTask<int64_t> ExecTask(const TaskStmt& stmt, int64_t at);
  DolTask<int64_t> ExecParallel(const ParallelStmt& stmt, int64_t at);
  DolTask<int64_t> ExecIf(const IfStmt& stmt, int64_t at);
  DolTask<int64_t> ExecCommit(const CommitStmt& stmt, int64_t at);
  DolTask<int64_t> ExecAbort(const AbortStmt& stmt, int64_t at);
  DolTask<int64_t> ExecCompensate(const CompensateStmt& stmt, int64_t at);
  /// TransferRows; when it fails, drops every table this run's
  /// TRANSFERs created.
  DolTask<int64_t> ExecTransfer(const TransferStmt& stmt, int64_t at);
  /// One TRANSFER from `*now`: CREATE TABLE at the target (unless
  /// APPEND), recorded in transfer_tables_, then the typed INSERT.
  /// Keeps `*now` at the end of its last call, failed or not.
  DolTask<int64_t> TransferRows(const TransferStmt& stmt, int64_t* now);
  DolTask<int64_t> ExecClose(const CloseStmt& stmt, int64_t at);

  Result<bool> EvalCond(const DolCond& cond) const;

  Result<Channel*> FindChannel(const std::string& alias);
  Result<TaskOutcome*> FindTask(const std::string& name);

  /// One RPC to `service` under the retry policy: undelivered
  /// kUnavailable failures (rejections, down sites) are re-sent with
  /// backoff; timeouts are returned to the caller for verb-specific
  /// handling, except idempotent probe verbs which retry too. Returns
  /// the final outcome (end time in timing). `attempt_base` numbers the
  /// first send of this call in its logical operation, so the rpc spans
  /// of verb-level re-send loops (prepare/commit) keep counting up
  /// instead of restarting at 1.
  DolTask<netsim::CallOutcome> CallService(
      const std::string& service, const netsim::LamRequest& request,
      int64_t at, int attempt_base = 1);

  /// CallService on a channel's service.
  DolTask<netsim::CallOutcome> Call(Channel* channel,
                                    const netsim::LamRequest& request,
                                    int64_t at, int attempt_base = 1);

  /// Resolves a timed-out prepare/commit by re-probing the session's
  /// transaction state; returns the observed state (kActive when the
  /// probe itself could not be resolved, flagged via `probe_failed`).
  DolTask<relational::TxnState> Reprobe(Channel* channel, int64_t* now,
                                        bool* probe_failed);

  netsim::Environment* env_;
  RetryPolicy policy_;
  /// Stepper state of the in-flight run.
  std::optional<DolTask<int64_t>> root_;
  std::optional<PendingState> pending_;
  bool running_ = false;
  int64_t run_start_micros_ = 0;
  int64_t retries_ = 0;
  int64_t reprobes_ = 0;
  /// Traffic of the current run, summed from CallOutcome accounting.
  int64_t run_messages_ = 0;
  int64_t run_bytes_ = 0;
  std::map<std::string, Channel> channels_;
  std::map<std::string, TaskOutcome> tasks_;
  /// task name → alias of the channel it ran on.
  std::map<std::string, std::string> task_channel_;
  /// task name → declared COMPENSATION SQL ("" = none).
  std::map<std::string, std::string> compensations_;
  /// (target alias, table) of each table this run's TRANSFERs created.
  std::vector<std::pair<std::string, std::string>> transfer_tables_;
  int dol_status_ = 0;
};

}  // namespace msql::dol

#endif  // MSQL_DOL_ENGINE_H_
