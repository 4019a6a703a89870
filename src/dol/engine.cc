#include "dol/engine.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/string_util.h"
#include "obs/trace.h"
#include "relational/sql/ast.h"

namespace msql::dol {

using netsim::CallOutcome;
using netsim::LamRequest;
using netsim::LamRequestType;
using relational::TxnState;

namespace {

/// Verbs safe to re-send after a timeout: re-execution is harmless even
/// when the lost call was actually delivered. Everything else may have
/// changed local state, so a timeout must be resolved, not re-sent.
bool RetryableOnTimeout(LamRequestType type) {
  switch (type) {
    case LamRequestType::kPing:
    case LamRequestType::kQueryTxnState:
    case LamRequestType::kDescribe:
    case LamRequestType::kDescribeView:
    case LamRequestType::kOpenSession:
    case LamRequestType::kCloseSession:
      return true;
    default:
      return false;
  }
}

// Exponential backoff between re-sends, charged to the simulated clock:
// 1 ms before the first, doubling after each, capped at 64 ms.
constexpr int64_t kInitialBackoffMicros = 1000;
constexpr int64_t kBackoffMultiplier = 2;
constexpr int64_t kMaxBackoffMicros = 64000;

int64_t NextBackoff(int64_t backoff) {
  return std::min(backoff * kBackoffMultiplier, kMaxBackoffMicros);
}

}  // namespace

const TaskOutcome* DolRunResult::FindTask(const std::string& name) const {
  auto it = tasks.find(ToLower(name));
  return it == tasks.end() ? nullptr : &it->second;
}

std::string DolRunResult::ToString() const {
  std::string out = "DOLSTATUS=" + std::to_string(dol_status) +
                    " makespan=" + std::to_string(makespan_micros) +
                    "us messages=" + std::to_string(messages) +
                    " bytes=" + std::to_string(bytes);
  if (retries > 0 || reprobes > 0) {
    out += " retries=" + std::to_string(retries) +
           " reprobes=" + std::to_string(reprobes);
  }
  out += "\n";
  for (const auto& [alias, status] : failed_channels) {
    out += "  channel " + alias + ": OPEN FAILED (" + status.ToString() +
           ")\n";
  }
  for (const auto& [name, task] : tasks) {
    out += "  " + name + ": " + std::string(DolTaskStateName(task.state)) +
           " [" + std::to_string(task.start_micros) + "us, " +
           std::to_string(task.end_micros) + "us]";
    if (!task.last_status.ok()) {
      out += " (" + task.last_status.ToString() + ")";
    }
    if (task.result.IsQueryResult()) {
      out += " " + std::to_string(task.result.rows.size()) + " rows";
    } else if (task.result.rows_affected > 0) {
      out += " " + std::to_string(task.result.rows_affected) + " affected";
    }
    out += "\n";
  }
  return out;
}

void DolEngine::ResetRunState() {
  channels_.clear();
  tasks_.clear();
  task_channel_.clear();
  compensations_.clear();
  transfer_tables_.clear();
  dol_status_ = 0;
  retries_ = 0;
  reprobes_ = 0;
  run_messages_ = 0;
  run_bytes_ = 0;
}

// -- Stepper ----------------------------------------------------------------

void DolEngine::RpcAwaiter::await_suspend(std::coroutine_handle<> handle) {
  engine->pending_.emplace(PendingState{std::move(rpc), handle, this});
}

Status DolEngine::BeginRun(const DolProgram& program, int64_t start_micros) {
  AbandonRun();  // an engine is always reusable, even after a dropped run
  ResetRunState();
  running_ = true;
  run_start_micros_ = start_micros;
  root_.emplace(RunProgram(program));
  root_->Start();
  return Status::OK();
}

void DolEngine::Deliver(Result<CallOutcome> outcome) {
  assert(pending_.has_value() && "Deliver without a pending RPC");
  if (!pending_) return;
  PendingState state = std::move(*pending_);
  pending_.reset();
  state.awaiter->outcome.emplace(std::move(outcome));
  state.continuation.resume();
}

Result<DolRunResult> DolEngine::TakeResult() {
  if (!done()) {
    return Status::Internal("TakeResult called before the DOL run finished");
  }
  Result<int64_t> final_now = root_->Take();
  root_.reset();
  pending_.reset();
  running_ = false;
  if (!final_now.ok()) return final_now.status();

  DolRunResult result;
  result.dol_status = dol_status_;
  result.tasks = std::move(tasks_);
  result.makespan_micros = *final_now - run_start_micros_;
  // Per-run scoped accounting: CallService sums each call's own
  // messages/bytes, so concurrent unrelated traffic on the same
  // environment (probes, other runs, bootstrap SQL) is not charged to
  // this program.
  result.messages = run_messages_;
  result.bytes = run_bytes_;
  result.retries = retries_;
  result.reprobes = reprobes_;
  for (const auto& [alias, channel] : channels_) {
    if (!channel.open_status.ok()) {
      result.failed_channels.emplace(alias, channel.open_status);
    }
  }
  return result;
}

void DolEngine::AbandonRun() {
  pending_.reset();
  // Destroying the root frame unwinds every suspended child frame; their
  // locals (open spans, state notes) run their destructors normally.
  root_.reset();
  running_ = false;
}

Result<DolRunResult> DolEngine::Run(const DolProgram& program) {
  MSQL_RETURN_IF_ERROR(BeginRun(program, 0));
  // Service each pending call immediately against the environment: the
  // exact operation order of the pre-stepper interpreter.
  while (!done()) {
    const PendingRpc& rpc = *pending();
    Deliver(env_->Call(rpc.service, rpc.request, rpc.at));
  }
  return TakeResult();
}

DolTask<int64_t> DolEngine::RunProgram(const DolProgram& program) {
  obs::ScopedSpan run_span(&env_->tracer(), "dol.run", "dol",
                           run_start_micros_);
  int64_t now = run_start_micros_;
  for (const auto& stmt : program.statements) {
    MSQL_CO_AWAIT_OR_RETURN(now, ExecStmt(*stmt, now));
    run_span.set_sim_end(now);
  }
  run_span.Annotate("makespan_micros", now - run_start_micros_);
  run_span.Annotate("dol_status", static_cast<int64_t>(dol_status_));
  env_->metrics().Inc("dol.runs");
  env_->metrics().Observe("dol.makespan_micros", now - run_start_micros_);
  co_return now;
}

// -- Interpreter ------------------------------------------------------------

DolTask<int64_t> DolEngine::ExecStmt(const DolStmt& stmt, int64_t at) {
  switch (stmt.kind()) {
    case DolStmtKind::kOpen:
      co_return co_await ExecOpen(static_cast<const OpenStmt&>(stmt), at);
    case DolStmtKind::kTask:
      co_return co_await ExecTask(static_cast<const TaskStmt&>(stmt), at);
    case DolStmtKind::kParallel:
      co_return co_await ExecParallel(static_cast<const ParallelStmt&>(stmt),
                                      at);
    case DolStmtKind::kIf:
      co_return co_await ExecIf(static_cast<const IfStmt&>(stmt), at);
    case DolStmtKind::kCommit:
      co_return co_await ExecCommit(static_cast<const CommitStmt&>(stmt), at);
    case DolStmtKind::kAbort:
      co_return co_await ExecAbort(static_cast<const AbortStmt&>(stmt), at);
    case DolStmtKind::kCompensate:
      co_return co_await ExecCompensate(
          static_cast<const CompensateStmt&>(stmt), at);
    case DolStmtKind::kTransfer:
      co_return co_await ExecTransfer(static_cast<const TransferStmt&>(stmt),
                                      at);
    case DolStmtKind::kSetStatus:
      dol_status_ = static_cast<const SetStatusStmt&>(stmt).value;
      co_return at;
    case DolStmtKind::kClose:
      co_return co_await ExecClose(static_cast<const CloseStmt&>(stmt), at);
  }
  co_return Status::Internal("unhandled DOL statement kind");
}

Result<DolEngine::Channel*> DolEngine::FindChannel(const std::string& alias) {
  auto it = channels_.find(ToLower(alias));
  if (it == channels_.end()) {
    return Status::NotFound("DOL alias '" + alias +
                            "' has not been OPENed");
  }
  return &it->second;
}

Result<TaskOutcome*> DolEngine::FindTask(const std::string& name) {
  auto it = tasks_.find(ToLower(name));
  if (it == tasks_.end()) {
    return Status::NotFound("unknown DOL task '" + name + "'");
  }
  return &it->second;
}

DolTask<CallOutcome> DolEngine::CallService(const std::string& service,
                                            const LamRequest& request,
                                            int64_t at, int attempt_base) {
  int64_t backoff = kInitialBackoffMicros;
  int attempt = attempt_base;
  while (true) {
    // One span per send attempt: re-sends show up as sibling rpc spans
    // with increasing attempt numbers, which is how a trace answers
    // "which retries fired" without reading aggregate counters.
    obs::ScopedSpan rpc_span(
        &env_->tracer(),
        std::string("rpc:") + std::string(LamRequestTypeName(request.type)),
        "rpc", at);
    rpc_span.Annotate("service", service);
    rpc_span.Annotate("attempt", static_cast<int64_t>(attempt));
    // Park here: the driver (Run's loop, or the federation scheduler)
    // decides when this call is serviced and with what outcome. The
    // awaiter is a named local, not a temporary — GCC 12 materializes a
    // temporary awaiter at the wrong address, corrupting its members.
    RpcAwaiter awaiter{this, PendingRpc{service, request, at}, {}};
    auto outcome = co_await awaiter;
    CallOutcome result;
    if (!outcome.ok()) {
      // Network-level failure (site down): surface it as a
      // response-level failure so the task/abort logic can treat it
      // like a local abort.
      result.response.status = outcome.status();
      result.timing.start_micros = at;
      result.timing.end_micros =
          at + env_->network().default_link().latency_micros;
    } else {
      result = std::move(*outcome);
    }
    run_messages_ += result.messages;
    run_bytes_ += result.bytes;
    rpc_span.set_sim_end(result.timing.end_micros);
    env_->metrics().Observe(
        "rpc.sim_micros", result.timing.end_micros - at);
    if (result.fault != netsim::FaultAction::kNone) {
      rpc_span.Annotate("fault", netsim::FaultActionName(result.fault));
    }
    if (result.timed_out) rpc_span.Annotate("timed_out", "true");
    if (!result.response.status.ok()) {
      rpc_span.Annotate("status",
                        StatusCodeName(result.response.status.code()));
    }
    if (result.response.status.ok()) co_return result;
    // Only unavailability is transient; any other failure is a definite
    // local verdict and retrying cannot change it.
    if (result.response.status.code() != StatusCode::kUnavailable) {
      co_return result;
    }
    // A timed-out call may have been executed; re-sending is only safe
    // for idempotent verbs — the caller resolves the rest by re-probe.
    if (result.timed_out && !RetryableOnTimeout(request.type)) {
      co_return result;
    }
    if (attempt >= policy_.max_attempts) co_return result;
    ++attempt;
    ++retries_;
    env_->metrics().Inc("dol.retries");
    rpc_span.Annotate("backoff_micros", backoff);
    at = result.timing.end_micros + backoff;
    backoff = NextBackoff(backoff);
  }
}

DolTask<CallOutcome> DolEngine::Call(Channel* channel,
                                     const LamRequest& request, int64_t at,
                                     int attempt_base) {
  co_return co_await CallService(channel->service, request, at, attempt_base);
}

DolTask<TxnState> DolEngine::Reprobe(Channel* channel, int64_t* now,
                                     bool* probe_failed) {
  LamRequest probe;
  probe.type = LamRequestType::kQueryTxnState;
  probe.session = channel->session;
  ++reprobes_;
  env_->metrics().Inc("dol.reprobes");
  obs::ScopedSpan span(&env_->tracer(), "reprobe", "2pc", *now);
  span.Annotate("service", channel->service);
  MSQL_CO_AWAIT_OR_RETURN(auto outcome, Call(channel, probe, *now));
  *now = outcome.timing.end_micros;
  span.set_sim_end(*now);
  if (!outcome.response.status.ok()) {
    *probe_failed = true;
    span.Annotate("observed", "unresolved");
    co_return TxnState::kActive;
  }
  *probe_failed = false;
  co_return outcome.response.txn_state;
}

DolTask<int64_t> DolEngine::ExecOpen(const OpenStmt& stmt, int64_t at) {
  std::string alias = ToLower(stmt.alias);
  if (channels_.count(alias) > 0) {
    co_return Status::InvalidArgument("DOL alias '" + alias +
                                      "' is already open");
  }
  Channel channel;
  channel.service = ToLower(stmt.service);
  channel.database = ToLower(stmt.database);

  obs::ScopedSpan span(&env_->tracer(), "channel.open:" + alias, "channel",
                       at);
  span.Annotate("service", channel.service);
  span.Annotate("database", channel.database);

  LamRequest open;
  open.type = LamRequestType::kOpenSession;
  open.database = channel.database;
  MSQL_CO_AWAIT_OR_RETURN(auto outcome,
                          CallService(channel.service, open, at));
  int64_t end = outcome.timing.end_micros;
  span.set_sim_end(end);
  if (!outcome.response.status.ok()) {
    channel.failed = true;
    channel.open_status = outcome.response.status;
    span.Annotate("open_failed",
                  StatusCodeName(outcome.response.status.code()));
  } else {
    channel.session = outcome.response.session;
  }
  channels_.emplace(alias, std::move(channel));
  co_return end;
}

DolTask<int64_t> DolEngine::DrainTxn(Channel* channel, int64_t when) {
  LamRequest rollback;
  rollback.type = LamRequestType::kRollback;
  rollback.session = channel->session;
  MSQL_CO_AWAIT_OR_RETURN(auto rb_out, Call(channel, rollback, when));
  co_return rb_out.timing.end_micros;
}

DolTask<int64_t> DolEngine::ExecTask(const TaskStmt& stmt, int64_t at) {
  std::string name = ToLower(stmt.name);
  if (tasks_.count(name) > 0) {
    co_return Status::InvalidArgument("DOL task '" + name +
                                      "' is declared twice");
  }
  TaskOutcome outcome;
  outcome.name = name;
  outcome.start_micros = at;
  MSQL_CO_ASSIGN_OR_RETURN(Channel * channel, FindChannel(stmt.target_alias));
  outcome.service = channel->service;
  outcome.database = channel->database;

  obs::ScopedSpan task_span(&env_->tracer(), "task:" + name, "dol.task", at);
  task_span.Annotate("channel", ToLower(stmt.target_alias));
  if (stmt.nocommit) task_span.Annotate("nocommit", "true");
  env_->metrics().Inc("dol.tasks");
  // The final state is only known at the task's various exits; a scope
  // guard keeps every return annotated.
  struct StateNote {
    obs::ScopedSpan* span;
    const TaskOutcome* outcome;
    ~StateNote() {
      span->Annotate("state", DolTaskStateName(outcome->state));
      span->set_sim_end(outcome->end_micros);
    }
  } state_note{&task_span, &outcome};

  // Register the compensation even if the task later aborts — the
  // COMPENSATE statement validates against the *declared* block.
  compensations_[name] = stmt.compensation_sql;

  if (channel->failed) {
    outcome.state = DolTaskState::kAborted;
    outcome.last_status = channel->open_status;
    outcome.end_micros = at;
    tasks_.emplace(name, std::move(outcome));
    co_return at;
  }

  int64_t now = at;
  auto abort_task = [&](const Status& why, int64_t end) -> int64_t {
    outcome.state = DolTaskState::kAborted;
    outcome.last_status = why;
    outcome.end_micros = end;
    return end;
  };
  // Best-effort rollback after a timed-out call (DrainTxn): the lost
  // call may have left a transaction open and holding locks. A rollback
  // failure is ignored — there may be nothing to roll back.

  if (stmt.nocommit) {
    LamRequest begin;
    begin.type = LamRequestType::kBegin;
    begin.session = channel->session;
    MSQL_CO_AWAIT_OR_RETURN(auto begin_out, Call(channel, begin, now));
    now = begin_out.timing.end_micros;
    if (!begin_out.response.status.ok()) {
      if (begin_out.timed_out) {
        MSQL_CO_AWAIT_OR_RETURN(now, DrainTxn(channel, now));
      }
      now = abort_task(begin_out.response.status, now);
      tasks_.emplace(name, std::move(outcome));
      co_return now;
    }
  }

  LamRequest exec;
  exec.type = LamRequestType::kExecute;
  exec.session = channel->session;
  exec.sql = stmt.body_sql;
  MSQL_CO_AWAIT_OR_RETURN(auto exec_out, Call(channel, exec, now));
  now = exec_out.timing.end_micros;
  if (!exec_out.response.status.ok()) {
    // On a definite local failure the engine has already aborted the
    // enclosing transaction; after a timeout the statement may have
    // been applied with the transaction still open, so drain it.
    if (exec_out.timed_out && stmt.nocommit) {
      MSQL_CO_AWAIT_OR_RETURN(now, DrainTxn(channel, now));
    }
    now = abort_task(exec_out.response.status, now);
    tasks_.emplace(name, std::move(outcome));
    co_return now;
  }
  outcome.result = std::move(exec_out.response.result);

  if (stmt.nocommit) {
    obs::ScopedSpan prep_span(&env_->tracer(), "2pc.prepare", "2pc", now);
    prep_span.Annotate("task", name);
    LamRequest prepare;
    prepare.type = LamRequestType::kPrepare;
    prepare.session = channel->session;
    MSQL_CO_AWAIT_OR_RETURN(auto prep_out, Call(channel, prepare, now));
    now = prep_out.timing.end_micros;
    prep_span.set_sim_end(now);
    bool prepared = prep_out.response.status.ok();
    if (!prepared && prep_out.timed_out && policy_.reprobe_on_timeout) {
      // A lost prepare ACK is resolved by re-probing: the transaction
      // either reached kPrepared (ACK lost — proceed), stayed kActive
      // (request lost — re-send while attempts remain) or aborted.
      int attempt = 1;
      int64_t backoff = kInitialBackoffMicros;
      while (true) {
        bool probe_failed = false;
        MSQL_CO_AWAIT_OR_RETURN(TxnState state,
                                Reprobe(channel, &now, &probe_failed));
        if (!probe_failed && state == TxnState::kPrepared) {
          prepared = true;
          break;
        }
        if (probe_failed || state != TxnState::kActive ||
            attempt >= policy_.max_attempts) {
          break;
        }
        ++attempt;
        ++retries_;
        env_->metrics().Inc("dol.retries");
        now += backoff;
        backoff = NextBackoff(backoff);
        MSQL_CO_AWAIT_OR_RETURN(auto again,
                                Call(channel, prepare, now, attempt));
        now = again.timing.end_micros;
        if (again.response.status.ok()) {
          prepared = true;
          break;
        }
        if (!again.timed_out) {
          prep_out = std::move(again);
          break;
        }
        prep_out = std::move(again);
      }
    }
    prep_span.Annotate("prepared", prepared ? "true" : "false");
    prep_span.End(now);
    if (!prepared) {
      // A refused prepare (no 2PC support, or injected failure) leaves
      // the transaction either aborted (injected) or still active
      // (refused): roll it back so no locks leak, then mark aborted.
      if (prep_out.response.txn_state == relational::TxnState::kActive ||
          prep_out.timed_out) {
        MSQL_CO_AWAIT_OR_RETURN(now, DrainTxn(channel, now));
      }
      now = abort_task(prep_out.response.status, now);
      tasks_.emplace(name, std::move(outcome));
      co_return now;
    }
    outcome.state = DolTaskState::kPrepared;
  } else {
    outcome.state = DolTaskState::kCommitted;  // autocommit succeeded
  }
  outcome.end_micros = now;
  task_channel_[name] = ToLower(stmt.target_alias);
  tasks_.emplace(name, std::move(outcome));
  co_return now;
}

DolTask<int64_t> DolEngine::ExecParallel(const ParallelStmt& stmt,
                                         int64_t at) {
  obs::ScopedSpan par_span(&env_->tracer(), "dol.parbegin", "dol", at);
  par_span.Annotate("statements", static_cast<int64_t>(stmt.body.size()));
  int64_t latest = at;
  // Branches are *stepped* in program order but their simulated clocks
  // all fork from `at` — the forked-clock parallelism of §4.3.
  for (const auto& inner : stmt.body) {
    MSQL_CO_AWAIT_OR_RETURN(int64_t end, ExecStmt(*inner, at));
    latest = std::max(latest, end);
  }
  par_span.set_sim_end(latest);
  co_return latest;
}

DolTask<int64_t> DolEngine::ExecIf(const IfStmt& stmt, int64_t at) {
  MSQL_CO_ASSIGN_OR_RETURN(bool taken, EvalCond(*stmt.condition));
  const auto& branch = taken ? stmt.then_branch : stmt.else_branch;
  int64_t now = at;
  for (const auto& inner : branch) {
    MSQL_CO_AWAIT_OR_RETURN(now, ExecStmt(*inner, now));
  }
  co_return now;
}

Result<bool> DolEngine::EvalCond(const DolCond& cond) const {
  switch (cond.kind()) {
    case DolCondKind::kStateTest: {
      const auto& test = static_cast<const StateTestCond&>(cond);
      auto it = tasks_.find(ToLower(test.task()));
      if (it == tasks_.end()) {
        return Status::NotFound("condition references unknown task '" +
                                test.task() + "'");
      }
      return it->second.state == test.state();
    }
    case DolCondKind::kAnd: {
      const auto& b = static_cast<const BinaryCond&>(cond);
      MSQL_ASSIGN_OR_RETURN(bool left, EvalCond(b.left()));
      if (!left) return false;
      return EvalCond(b.right());
    }
    case DolCondKind::kOr: {
      const auto& b = static_cast<const BinaryCond&>(cond);
      MSQL_ASSIGN_OR_RETURN(bool left, EvalCond(b.left()));
      if (left) return true;
      return EvalCond(b.right());
    }
    case DolCondKind::kNot: {
      const auto& n = static_cast<const NotCond&>(cond);
      MSQL_ASSIGN_OR_RETURN(bool inner, EvalCond(n.operand()));
      return !inner;
    }
  }
  return Status::Internal("unhandled condition kind");
}

DolTask<int64_t> DolEngine::ExecCommit(const CommitStmt& stmt, int64_t at) {
  int64_t now = at;
  for (const auto& task_name : stmt.tasks) {
    MSQL_CO_ASSIGN_OR_RETURN(TaskOutcome * task, FindTask(task_name));
    if (task->state == DolTaskState::kCommitted) continue;  // idempotent
    if (task->state != DolTaskState::kPrepared) {
      co_return Status::TransactionError(
          "COMMIT of task '" + task->name + "' in state " +
          std::string(DolTaskStateName(task->state)));
    }
    MSQL_CO_ASSIGN_OR_RETURN(Channel * channel,
                             FindChannel(task_channel_.at(task->name)));
    obs::ScopedSpan commit_span(&env_->tracer(), "2pc.commit", "2pc", now);
    commit_span.Annotate("task", task->name);
    struct CommitNote {
      obs::ScopedSpan* span;
      const TaskOutcome* task;
      int64_t* now;
      ~CommitNote() {
        span->Annotate("state", DolTaskStateName(task->state));
        span->set_sim_end(*now);
      }
    } commit_note{&commit_span, task, &now};
    LamRequest commit;
    commit.type = LamRequestType::kCommit;
    commit.session = channel->session;
    MSQL_CO_AWAIT_OR_RETURN(auto outcome, Call(channel, commit, now));
    now = outcome.timing.end_micros;
    if (outcome.response.status.ok()) {
      task->state = DolTaskState::kCommitted;
      continue;
    }
    if (outcome.timed_out && policy_.reprobe_on_timeout) {
      // The in-doubt window of §3.2.1: the commit may have been applied
      // (ACK lost) or never delivered. Re-probe the transaction state
      // instead of assuming the worst — a lost ACK resolves to
      // kCommitted, a lost request is re-sent while attempts remain.
      int attempt = 1;
      int64_t backoff = kInitialBackoffMicros;
      bool resolved = false;
      while (!resolved) {
        bool probe_failed = false;
        MSQL_CO_AWAIT_OR_RETURN(TxnState state,
                                Reprobe(channel, &now, &probe_failed));
        if (probe_failed) {
          // State unobservable: conservatively mark aborted; the plan's
          // verify step will report the execution incorrect.
          task->state = DolTaskState::kAborted;
          task->last_status = outcome.response.status;
          resolved = true;
        } else if (state == TxnState::kCommitted) {
          task->state = DolTaskState::kCommitted;
          resolved = true;
        } else if (state == TxnState::kAborted) {
          task->state = DolTaskState::kAborted;
          task->last_status = outcome.response.status;
          resolved = true;
        } else if (attempt >= policy_.max_attempts) {
          // Still prepared and out of attempts: leave the task in
          // kPrepared so the plan's cleanup branch can roll it back —
          // a known-prepared transaction must not leak its locks.
          task->last_status = outcome.response.status;
          resolved = true;
        } else {
          ++attempt;
          ++retries_;
          env_->metrics().Inc("dol.retries");
          now += backoff;
          backoff = NextBackoff(backoff);
          MSQL_CO_AWAIT_OR_RETURN(auto again,
                                  Call(channel, commit, now, attempt));
          now = again.timing.end_micros;
          if (again.response.status.ok()) {
            task->state = DolTaskState::kCommitted;
            resolved = true;
          } else if (!again.timed_out) {
            task->state = DolTaskState::kAborted;
            task->last_status = again.response.status;
            resolved = true;
          } else {
            outcome = std::move(again);  // re-probe the new timeout
          }
        }
      }
      continue;
    }
    task->state = DolTaskState::kAborted;
    task->last_status = outcome.response.status;
  }
  co_return now;
}

DolTask<int64_t> DolEngine::ExecAbort(const AbortStmt& stmt, int64_t at) {
  int64_t now = at;
  for (const auto& task_name : stmt.tasks) {
    MSQL_CO_ASSIGN_OR_RETURN(TaskOutcome * task, FindTask(task_name));
    if (task->state == DolTaskState::kAborted ||
        task->state == DolTaskState::kNotRun) {
      task->state = DolTaskState::kAborted;
      continue;
    }
    if (task->state != DolTaskState::kPrepared) {
      co_return Status::TransactionError(
          "ABORT of task '" + task->name + "' in state " +
          std::string(DolTaskStateName(task->state)) +
          " (committed tasks must be compensated)");
    }
    MSQL_CO_ASSIGN_OR_RETURN(Channel * channel,
                             FindChannel(task_channel_.at(task->name)));
    LamRequest rollback;
    rollback.type = LamRequestType::kRollback;
    rollback.session = channel->session;
    MSQL_CO_AWAIT_OR_RETURN(auto outcome, Call(channel, rollback, now));
    now = outcome.timing.end_micros;
    task->state = DolTaskState::kAborted;
    if (!outcome.response.status.ok()) {
      task->last_status = outcome.response.status;
    }
  }
  co_return now;
}

DolTask<int64_t> DolEngine::ExecCompensate(const CompensateStmt& stmt,
                                           int64_t at) {
  int64_t now = at;
  for (const auto& task_name : stmt.tasks) {
    MSQL_CO_ASSIGN_OR_RETURN(TaskOutcome * task, FindTask(task_name));
    if (task->state != DolTaskState::kCommitted) {
      co_return Status::TransactionError(
          "COMPENSATE of task '" + task->name + "' in state " +
          std::string(DolTaskStateName(task->state)) +
          " (only committed tasks can be compensated)");
    }
    auto comp_it = compensations_.find(task->name);
    if (comp_it == compensations_.end() || comp_it->second.empty()) {
      co_return Status::TransactionError(
          "task '" + task->name + "' declares no COMPENSATION block");
    }
    MSQL_CO_ASSIGN_OR_RETURN(Channel * channel,
                             FindChannel(task_channel_.at(task->name)));
    LamRequest exec;
    exec.type = LamRequestType::kExecute;
    exec.session = channel->session;
    exec.sql = comp_it->second;
    MSQL_CO_AWAIT_OR_RETURN(auto outcome, Call(channel, exec, now));
    now = outcome.timing.end_micros;
    if (!outcome.response.status.ok()) {
      // A failed compensation leaves the multidatabase incorrect; no
      // sound plan can recover, so surface it as a program error.
      co_return Status::TransactionError(
          "compensation of task '" + task->name + "' failed: " +
          outcome.response.status.ToString());
    }
    task->state = DolTaskState::kCompensated;
  }
  co_return now;
}

DolTask<int64_t> DolEngine::ExecTransfer(const TransferStmt& stmt,
                                         int64_t at) {
  int64_t now = at;
  Result<int64_t> moved = co_await TransferRows(stmt, &now);
  if (moved.ok()) co_return *moved;
  // A failed TRANSFER ends the run before its drop tasks run, so the run
  // drops every table its TRANSFERs created: each left behind blocks
  // every later TRANSFER into its name. Best effort: the TRANSFER's
  // failure is what the run reports, whatever the DROPs return (one the
  // run already dropped itself just fails).
  for (const auto& [alias, table] : std::exchange(transfer_tables_, {})) {
    auto channel = FindChannel(alias);
    if (!channel.ok() || (*channel)->failed) continue;
    LamRequest drop;
    drop.type = LamRequestType::kExecute;
    drop.session = (*channel)->session;
    drop.sql = "DROP TABLE " + table;
    (void)co_await Call(*channel, drop, now);
  }
  co_return moved.status();
}

DolTask<int64_t> DolEngine::TransferRows(const TransferStmt& stmt,
                                         int64_t* now) {
  const int64_t at = *now;
  MSQL_CO_ASSIGN_OR_RETURN(TaskOutcome * task, FindTask(stmt.task));
  if (!task->result.IsQueryResult()) {
    co_return Status::InvalidArgument("TRANSFER source task '" + task->name +
                                      "' produced no query result");
  }
  MSQL_CO_ASSIGN_OR_RETURN(Channel * channel, FindChannel(stmt.target_alias));
  if (channel->failed) {
    co_return Status::Unavailable("TRANSFER target channel '" +
                                  stmt.target_alias + "' is not usable");
  }

  if (!stmt.append) {
    // CREATE TABLE at the target.
    std::string create = "CREATE TABLE " + stmt.table + " (";
    for (size_t i = 0; i < stmt.columns.size(); ++i) {
      if (i > 0) create += ", ";
      create += stmt.columns[i].name + " " + stmt.columns[i].type_name;
      if (stmt.columns[i].width > 0) {
        create += "(" + std::to_string(stmt.columns[i].width) + ")";
      }
    }
    create += ")";
    LamRequest create_req;
    create_req.type = LamRequestType::kExecute;
    create_req.session = channel->session;
    create_req.sql = create;
    MSQL_CO_AWAIT_OR_RETURN(auto create_out, Call(channel, create_req, at));
    *now = create_out.timing.end_micros;
    MSQL_CO_RETURN_IF_ERROR(create_out.response.status);
    transfer_tables_.emplace_back(stmt.target_alias, stmt.table);
  }

  if (task->result.rows.empty()) co_return *now;

  // The rows travel as the typed values the source task returned. The
  // request borrows them through `insert`: both live in this frame or in
  // tasks_ until the call and its retries are done.
  relational::InsertStmt insert;
  insert.table.table = stmt.table;
  if (stmt.append) {
    for (const auto& col : stmt.columns) insert.columns.push_back(col.name);
  }
  insert.typed_rows = &task->result.rows;
  LamRequest insert_req;
  insert_req.type = LamRequestType::kExecute;
  insert_req.session = channel->session;
  insert_req.insert = &insert;
  MSQL_CO_AWAIT_OR_RETURN(auto insert_out, Call(channel, insert_req, *now));
  *now = insert_out.timing.end_micros;
  MSQL_CO_RETURN_IF_ERROR(insert_out.response.status);
  co_return *now;
}

DolTask<int64_t> DolEngine::ExecClose(const CloseStmt& stmt, int64_t at) {
  int64_t now = at;
  for (const auto& alias : stmt.aliases) {
    MSQL_CO_ASSIGN_OR_RETURN(Channel * channel, FindChannel(alias));
    if (channel->failed || channel->session == 0) {
      channel->failed = true;
      continue;
    }
    obs::ScopedSpan close_span(&env_->tracer(),
                               "channel.close:" + ToLower(alias), "channel",
                               now);
    close_span.Annotate("service", channel->service);
    LamRequest close;
    close.type = LamRequestType::kCloseSession;
    close.session = channel->session;
    MSQL_CO_AWAIT_OR_RETURN(auto outcome, Call(channel, close, now));
    now = outcome.timing.end_micros;
    close_span.set_sim_end(now);
    channel->failed = true;  // no further use
    channel->session = 0;
  }
  co_return now;
}

}  // namespace msql::dol
