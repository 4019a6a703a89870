#include "core/session_scheduler.h"

#include <algorithm>
#include <functional>
#include <set>

namespace msql::core {

namespace {

/// Longest simulated time a session may sit parked on one lock wait
/// before the scheduler force-aborts it.
constexpr int64_t kLockWaitTimeoutMicros = 5'000'000;

}  // namespace

FederationServer::FederationServer(MultidatabaseSystem* system,
                                   ServerConfig config)
    : system_(system), config_(config) {}

uint64_t FederationServer::Submit(std::string msql_text) {
  auto session = std::make_unique<Session>();
  session->id = sessions_.size() + 1;
  session->text = std::move(msql_text);
  session->result.session_id = session->id;
  sessions_.push_back(std::move(session));
  return sessions_.back()->id;
}

Result<std::vector<SessionResult>> FederationServer::RunAll() {
  netsim::Environment& env = system_->environment();
  // Local engines must wait on lock conflicts (reporting kBusy + the
  // blockers) instead of aborting, for the duration of the batch.
  using WaitPolicy = relational::LockManager::WaitPolicy;
  std::vector<std::pair<relational::LockManager*, WaitPolicy>> saved;
  for (const auto& name : env.ServiceNames()) {
    auto lam = env.GetLam(name);
    if (!lam.ok()) continue;
    relational::LockManager& locks = (*lam)->engine()->lock_manager();
    saved.emplace_back(&locks, locks.wait_policy());
    locks.set_wait_policy(WaitPolicy::kWait);
  }
  auto results = RunBatch();
  for (auto& [locks, policy] : saved) locks->set_wait_policy(policy);
  return results;
}

Result<std::vector<SessionResult>> FederationServer::RunBatch() {
  clock_ = 0;
  steps_ = 0;
  scan_visits_ = 0;
  while (true) {
    AdmitEligible();
    ++steps_;
    std::erase_if(live_, [](const Session* s) {
      return s->state == SessionState::kDone;
    });
    // Pick the ready session with the earliest effective call time
    // (ties go to the lowest session id): calls reach the netsim in
    // global time order.
    Session* next = nullptr;
    int64_t next_at = 0;
    bool any_parked = false;
    for (Session* live : live_) {
      Session& s = *live;
      ++scan_visits_;
      if (s.state == SessionState::kParked) any_parked = true;
      if (s.state != SessionState::kReady) continue;
      const dol::DolEngine::PendingRpc* rpc = s.engine->pending();
      if (s.summary != nullptr) ObservePhase(s, *rpc);
      int64_t at = std::max(rpc->at, s.resume_at);
      if (next == nullptr || at < next_at) {
        next = &s;
        next_at = at;
      }
    }
    if (next == nullptr) {
      if (any_parked) {
        // Nothing runnable: every admitted session is blocked on locks.
        BreakStall();
        continue;
      }
      // Admit more — including deferred sessions, which can always run
      // once the sessions they were held against have finished.
      if (next_unadmitted_ < sessions_.size() || !deferred_.empty()) {
        continue;
      }
      break;  // batch complete
    }
    clock_ = std::max(clock_, next_at);
    Step(*next, next_at);
    // Lock-wait timeout sweep on the advanced clock.
    for (Session* live : live_) {
      Session& s = *live;
      if (s.state == SessionState::kParked &&
          clock_ - s.parked_since >= kLockWaitTimeoutMicros) {
        AbortParked(s,
                    "lock wait timeout: blocked for " +
                        std::to_string(clock_ - s.parked_since) +
                        "us at service '" + s.parked_service + "'",
                    /*deadlock=*/false);
      }
    }
    if (monitor_ != nullptr && monitor_->NeedsSample(clock_)) {
      SampleMonitor();
    }
  }
  shed_active_ = false;
  std::vector<SessionResult> results;
  results.reserve(sessions_.size());
  for (auto& entry : sessions_) results.push_back(std::move(entry->result));
  sessions_.clear();
  local_owner_.clear();
  next_unadmitted_ = 0;
  live_.clear();
  active_ = 0;
  deferred_.clear();
  graph_ = analysis::ConflictGraph();
  graph_dirty_ = false;
  return results;
}

void FederationServer::AdmitEligible() {
  // Adaptive shedding narrows admission to one-at-a-time: the active
  // set drains, but one session always runs so the batch keeps making
  // progress and every shed session still terminates.
  const bool shed = ShedActive();
  auto may_admit = [&]() {
    if (shed) return active_ < 1;
    return config_.max_admitted <= 0 || active_ < config_.max_admitted;
  };
  // Deferred sessions first (they were submitted earlier): once a risky
  // peer finishes, the deferral reason may be gone. Only worth
  // re-checking when the admitted set changed.
  if (graph_dirty_ && !deferred_.empty()) {
    std::vector<size_t> still_deferred;
    for (size_t index : deferred_) {
      Session& s = *sessions_[index];
      if (!may_admit() || DeferIfRisky(s)) {
        still_deferred.push_back(index);
        continue;
      }
      Admit(s);
    }
    deferred_ = std::move(still_deferred);
    graph_dirty_ = false;
  }
  // Fill the remaining slots in submit order.
  while (next_unadmitted_ < sessions_.size() && may_admit()) {
    Session& s = *sessions_[next_unadmitted_];
    Consider(s);
    if (DeferIfRisky(s)) {
      deferred_.push_back(next_unadmitted_++);
      continue;
    }
    ++next_unadmitted_;
    Admit(s);
  }
}

bool FederationServer::DeferIfRisky(Session& s) {
  std::vector<uint64_t> against;
  if (s.summary == nullptr ||
      !graph_.WouldRiskDeadlock(*s.summary, &against)) {
    return false;
  }
  s.deferred_against.insert(against.begin(), against.end());
  ++s.result.admission_deferrals;
  return true;
}

void FederationServer::ObservePhase(Session& s,
                                    const dol::DolEngine::PendingRpc& rpc) {
  using netsim::LamRequestType;
  bool acquiring = true;
  switch (rpc.request.type) {
    case LamRequestType::kPrepare:
    case LamRequestType::kCommit:
    case LamRequestType::kRollback:
    case LamRequestType::kQueryTxnState:
    case LamRequestType::kCloseSession:
      acquiring = false;
      break;
    default:
      // OPEN/BEGIN/EXECUTE (and the introspection verbs, conservatively)
      // may still take new table locks.
      break;
  }
  if (!acquiring && !s.quiesced) {
    s.quiesced = true;
    graph_.Quiesce(s.id);
    graph_dirty_ = true;
  } else if (acquiring && s.quiesced) {
    s.quiesced = false;
    graph_.Reactivate(s.id);
  }
}

void FederationServer::SwapSpans(Session& s) {
  s.span_stack = system_->environment().tracer().ExchangeParentStack(
      std::move(s.span_stack));
}

void FederationServer::Consider(Session& s) {
  if (s.considered) return;
  s.considered = true;
  SwapSpans(s);
  obs::Tracer& tracer = system_->environment().tracer();
  s.root_span = tracer.StartSpan("session:" + std::to_string(s.id),
                                 "server", clock_);
  if (s.root_span != 0) tracer.PushParent(s.root_span);
  auto prepared = system_->Prepare(s.text);
  if (!prepared.ok()) {
    s.prepare_status = prepared.status();
    SwapSpans(s);
    return;
  }
  if (!prepared->immediate.has_value()) {
    s.prepare_status = system_->VerifyPreparedPlan(prepared->plan);
    if (s.prepare_status.ok() && config_.conflict_aware) {
      s.summary = std::make_shared<analysis::AccessSummary>(
          analysis::SummarizePlan(prepared->plan));
    }
  }
  if (s.prepare_status.ok()) s.prepared = std::move(*prepared);
  SwapSpans(s);
}

void FederationServer::Admit(Session& s) {
  Consider(s);
  s.state = SessionState::kReady;
  ++active_;
  // Deferred sessions are admitted after later ones: keep id order.
  live_.insert(std::upper_bound(live_.begin(), live_.end(), s.id,
                                [](uint64_t id, const Session* other) {
                                  return id < other->id;
                                }),
               &s);
  s.result.admit_micros = clock_;
  s.resume_at = clock_;
  if (s.shed_since >= 0) {
    s.result.shed_wait_micros += clock_ - s.shed_since;
    s.shed_since = -1;
  }
  SwapSpans(s);
  if (!s.prepare_status.ok()) {
    s.result.status = s.prepare_status;
    s.result.finish_micros = clock_;
    CloseSession(s);
    return;
  }
  if (s.prepared->immediate.has_value()) {
    // Refused at prepare time: nothing to run.
    ExecutionReport report = *std::move(s.prepared->immediate);
    system_->LogInput(s.prepared->kind, report);
    s.result.report = std::move(report);
    s.result.finish_micros = clock_;
    CloseSession(s);
    return;
  }
  if (s.summary != nullptr) {
    graph_.Admit(s.id, s.summary);
    graph_dirty_ = true;
  }
  s.result.avoided_deadlocks =
      static_cast<int64_t>(s.deferred_against.size());
  s.engine = std::make_unique<dol::DolEngine>(&system_->environment(),
                                              system_->retry_policy());
  Status begun = s.engine->BeginRun(s.prepared->plan.program, clock_);
  if (!begun.ok()) {
    s.result.status = begun;
    s.result.finish_micros = clock_;
    CloseSession(s);
    return;
  }
  if (s.engine->done()) {  // a program with no remote calls
    Finish(s, s.engine->TakeResult());
    return;
  }
  SwapSpans(s);
}

void FederationServer::Step(Session& s, int64_t at) {
  netsim::Environment& env = system_->environment();
  const dol::DolEngine::PendingRpc& rpc = *s.engine->pending();
  // Copy what post-delivery bookkeeping needs: Deliver invalidates rpc.
  const std::string service = rpc.service;
  const netsim::LamRequestType verb = rpc.request.type;
  const relational::SessionId local_session = rpc.request.session;

  SwapSpans(s);
  auto outcome = env.Call(service, rpc.request, at);
  if (outcome.ok() &&
      outcome->response.status.code() == StatusCode::kBusy) {
    // The statement would block on another session's locks: withhold
    // the response from the engine and park the session until a
    // lock-releasing verb completes at this service. The retry simply
    // re-issues the same request — the local executor acquires every
    // lock before its first mutation, so re-execution is safe.
    SwapSpans(s);
    ++s.result.busy_probes;
    ++s.result.lock_waits;
    s.state = SessionState::kParked;
    s.parked_service = service;
    s.parked_since = outcome->timing.end_micros;
    s.waits_for.clear();
    for (relational::SessionId blocker : outcome->response.blocked_by) {
      auto it = local_owner_.find({service, blocker});
      if (it != local_owner_.end() && it->second != s.id) {
        s.waits_for.push_back(it->second);
        // Oracle record: every runtime blocker pair must be a
        // statically predicted conflict (tests/conflict_oracle_test).
        auto& observed = s.result.observed_blockers;
        if (std::find(observed.begin(), observed.end(), it->second) ==
            observed.end()) {
          observed.push_back(it->second);
        }
      }
    }
    Session* victim = FindDeadlockVictim(s);
    if (victim != nullptr) {
      AbortParked(*victim,
                  "deadlock victim: aborted to break a waits-for cycle",
                  /*deadlock=*/true);
    }
    return;
  }

  const bool ok_response = outcome.ok() && outcome->response.status.ok();
  const relational::SessionId opened =
      outcome.ok() ? outcome->response.session : 0;
  const int64_t end = outcome.ok() ? outcome->timing.end_micros : at;
  s.engine->Deliver(std::move(outcome));
  if (s.engine->done()) {
    Finish(s, s.engine->TakeResult());
  } else {
    SwapSpans(s);
  }

  // Maintain the (service, local session) -> federation session map the
  // waits-for graph is built from.
  if (verb == netsim::LamRequestType::kOpenSession && ok_response &&
      opened != 0) {
    local_owner_[{service, opened}] = s.id;
  } else if (verb == netsim::LamRequestType::kCloseSession) {
    local_owner_.erase({service, local_session});
  }

  // A completed lock-releasing verb may have freed parked sessions: a
  // finished EXEC committed (autocommit) or aborted its statement's
  // transaction, COMMIT/ROLLBACK ended an explicit one.
  switch (verb) {
    case netsim::LamRequestType::kExecute:
    case netsim::LamRequestType::kCommit:
    case netsim::LamRequestType::kRollback:
    case netsim::LamRequestType::kCloseSession:
      WakeParked(service, end);
      break;
    default:
      break;
  }
}

void FederationServer::WakeParked(const std::string& service, int64_t now) {
  for (Session* live : live_) {
    Session& s = *live;
    if (s.state != SessionState::kParked || s.parked_service != service) {
      continue;
    }
    s.state = SessionState::kReady;
    s.resume_at = std::max(s.resume_at, now);
    s.result.lock_wait_micros += std::max<int64_t>(0, now - s.parked_since);
    s.waits_for.clear();
  }
}

FederationServer::Session* FederationServer::FindDeadlockVictim(Session& s) {
  // Waits-for edges only change when a session parks, so any new cycle
  // passes through the session that just parked: search for a path
  // leading back to it.
  std::set<uint64_t> visited;
  std::vector<Session*> path;
  std::function<bool(Session&)> walk = [&](Session& node) -> bool {
    path.push_back(&node);
    for (uint64_t target : node.waits_for) {
      if (target == s.id) return true;
      if (visited.count(target) > 0) continue;
      visited.insert(target);
      Session& next = *sessions_[target - 1];
      if (next.state == SessionState::kParked && walk(next)) return true;
    }
    path.pop_back();
    return false;
  };
  if (!walk(s)) return nullptr;
  Session* victim = nullptr;
  for (Session* node : path) {
    if (victim == nullptr || node->id > victim->id) victim = node;
  }
  return victim;
}

void FederationServer::BreakStall() {
  Session* victim = nullptr;
  for (Session* s : live_) {
    if (s->state == SessionState::kParked &&
        (victim == nullptr || s->id > victim->id)) {
      victim = s;
    }
  }
  if (victim != nullptr) {
    AbortParked(*victim,
                "lock wait stalled: every admitted session is blocked; "
                "aborted to restore progress",
                /*deadlock=*/false);
  }
}

void FederationServer::AbortParked(Session& s, const std::string& reason,
                                   bool deadlock) {
  const dol::DolEngine::PendingRpc& rpc = *s.engine->pending();
  const std::string service = rpc.service;
  netsim::Environment& env = system_->environment();
  // Release what the blocked statement's transaction already holds at
  // the contended site. Elsewhere the session's own DOL recovery path
  // (ABORT prepared tasks, compensate committed ones) cleans up as for
  // any aborted subtransaction; the status is ignored because there may
  // be nothing to roll back.
  auto lam = env.GetLam(service);
  if (lam.ok()) {
    (void)(*lam)->engine()->Rollback(rpc.request.session);
  }
  const int64_t now = std::max(clock_, s.parked_since);
  s.result.lock_wait_micros += std::max<int64_t>(0, now - s.parked_since);
  if (deadlock) {
    s.result.deadlock_victim = true;
  } else {
    s.result.lock_timeout = true;
  }
  s.state = SessionState::kReady;
  s.resume_at = now;
  s.waits_for.clear();

  netsim::CallOutcome aborted;
  aborted.response.status = Status::Aborted(reason);
  aborted.response.txn_state = relational::TxnState::kAborted;
  aborted.timing.start_micros = s.parked_since;
  aborted.timing.end_micros = now;
  SwapSpans(s);
  s.engine->Deliver(Result<netsim::CallOutcome>(std::move(aborted)));
  if (s.engine->done()) {
    Finish(s, s.engine->TakeResult());
  } else {
    SwapSpans(s);
  }
  // The rollback freed this session's locks at `service`.
  WakeParked(service, now);
}

void FederationServer::Finish(Session& s, Result<dol::DolRunResult> run) {
  int64_t end = clock_;
  if (run.ok()) end = s.result.admit_micros + run->makespan_micros;
  const lang::MsqlInput::Kind kind = s.prepared->kind;
  auto report =
      system_->FinishPreparedRun(std::move(*s.prepared), std::move(run));
  if (!report.ok()) {
    s.result.status = report.status();
  } else {
    system_->LogInput(kind, *report);
    s.result.report = std::move(*report);
  }
  s.result.finish_micros = end;
  // The server learns the outcome when the final response lands, so
  // sessions waiting on admission cannot start before that instant.
  clock_ = std::max(clock_, end);
  CloseSession(s);
}

void FederationServer::CloseSession(Session& s) {
  // Destroy the engine while the session's span context is current so
  // any abandoned in-flight spans unwind onto the right stack.
  s.engine.reset();
  obs::Tracer& tracer = system_->environment().tracer();
  if (s.root_span != 0) {
    tracer.Annotate(s.root_span, "outcome",
                    s.result.report.has_value()
                        ? GlobalOutcomeName(s.result.report->outcome)
                        : "error");
    if (s.result.deadlock_victim) {
      tracer.Annotate(s.root_span, "deadlock_victim", "true");
    }
    if (s.result.lock_timeout) {
      tracer.Annotate(s.root_span, "lock_timeout", "true");
    }
    tracer.PopParent();
    tracer.EndSpan(s.root_span, s.result.finish_micros);
  }
  SwapSpans(s);
  s.state = SessionState::kDone;
  --active_;
  graph_.Remove(s.id);
  graph_dirty_ = true;
  s.result.makespan_micros =
      s.result.finish_micros - s.result.admit_micros;
  RecordSessionSample(s);
}

bool FederationServer::ShedActive() const {
  return config_.adaptive_admission && monitor_ != nullptr &&
         monitor_->shedding();
}

void FederationServer::SampleMonitor() {
  monitor_->SetGauge("sessions.active", static_cast<double>(active_));
  const size_t waiting =
      sessions_.size() - next_unadmitted_ + deferred_.size();
  monitor_->SetGauge("sessions.waiting", static_cast<double>(waiting));
  monitor_->AdvanceTo(clock_);
  if (!config_.adaptive_admission) return;
  const bool shed = monitor_->shedding();
  if (shed == shed_active_) return;
  shed_active_ = shed;
  if (!shed) return;
  // Stamp the decision trail of every session the engagement holds
  // back. O(waiting), but only on the rare shed transitions.
  auto mark = [this](Session& s) {
    if (s.shed_since < 0) {
      s.shed_since = clock_;
      s.result.admission_shed = true;
    }
  };
  for (size_t i = next_unadmitted_; i < sessions_.size(); ++i) {
    mark(*sessions_[i]);
  }
  for (size_t index : deferred_) mark(*sessions_[index]);
}

void FederationServer::RecordSessionSample(const Session& s) {
  if (monitor_ == nullptr) return;
  obs::Monitor::SessionSample sample;
  sample.finish_micros = s.result.finish_micros;
  sample.makespan_micros = s.result.makespan_micros;
  sample.ok = s.result.status.ok() && s.result.report.has_value() &&
              s.result.report->outcome == GlobalOutcome::kSuccess;
  sample.deadlock_victim = s.result.deadlock_victim;
  sample.lock_timeout = s.result.lock_timeout;
  sample.was_shed = s.result.admission_shed;
  monitor_->RecordSession(sample);
}

}  // namespace msql::core
