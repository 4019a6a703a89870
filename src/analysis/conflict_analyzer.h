#ifndef MSQL_ANALYSIS_CONFLICT_ANALYZER_H_
#define MSQL_ANALYSIS_CONFLICT_ANALYZER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/diagnostics.h"
#include "translator/translator.h"

namespace msql::analysis {

// ---------------------------------------------------------------------------
// Static conflict & deadlock analyzer (DL3xx)
//
// A compiled DOL plan fully determines which tables each multitransaction
// touches at which sites: every TASK body is post-expansion SQL, every
// TRANSFER names its target table, and the PARBEGIN structure fixes the
// partial order of first lock acquisition. This pass predicts, before a
// plan is admitted to the federation, the per-site per-table read/write
// sets (the S/X table locks of relational::LockManager, which has no
// database-level lock), the acquisition order across sites, and the
// NOCOMMIT-hold footprint (locks held across the 2PC bracket until the
// plan's global decision).
//
// The summary is a sound over-approximation of the runtime lock trace:
// every lock a run can take is predicted (a task whose SQL cannot be
// statically parsed degrades to "db.*", a wildcard over every table of
// its database), so two summaries classified conflict-free can never
// produce a lock wait or a deadlock against each other. The scheduler's
// conflict-aware admission (core/session_scheduler) and the DL301-DL308
// diagnostics both build on this guarantee.
//
//   DL301 lock-order inversion between two inputs   DL305 2PC bracket
//   DL302 self-deadlock via aliased USE databases         spans 2+ sites
//   DL303 X lock held across a retryable vital task DL306 opaque task SQL
//   DL304 uncommitted intra-MT write/read overlap   DL307 parallel sibling
//   DL308 DDL on a table other tasks touch                writes
// ---------------------------------------------------------------------------

/// Table lock mode the analyzer predicts: relational::LockManager's S or
/// X on the same "db.table" key.
enum class PredictedMode { kShared, kExclusive };

std::string_view PredictedModeName(PredictedMode mode);  // "S" / "X"

/// One task's predicted access to one lockable resource.
struct TaskAccess {
  std::string task;      // DOL task name
  std::string service;
  std::string database;  // the session database the lock key lives in
  /// LockManager key: "db.table", or the wildcard "db.*" when the
  /// task's SQL is opaque (may touch any table of the database).
  std::string resource;
  PredictedMode mode = PredictedMode::kShared;
  /// Plan execution step of the task: tasks of one PARBEGIN share a
  /// step (their acquisitions are mutually unordered); later program
  /// statements get later steps.
  int step = 0;
  /// Acquired by a NOCOMMIT task: held across the 2PC bracket until
  /// the plan's global commit/abort decision.
  bool held_across_2pc = false;
  /// The access is a DDL statement (CREATE/DROP TABLE, INDEX, VIEW).
  bool ddl = false;
  /// The access comes from the task's COMPENSATION block (runs only
  /// when the plan compensates, in autocommit).
  bool compensation = false;
};

/// Per-plan access summary: the analyzer's prediction of every lock a
/// run of the plan can take, with the first-acquisition partial order.
struct AccessSummary {
  /// Every task-level access, in plan walk order.
  std::vector<TaskAccess> task_accesses;
  /// Merged per-(service, resource) accesses: write dominates read,
  /// step is the earliest acquisition, hold flags are OR-ed.
  std::vector<TaskAccess> accesses;
  /// Services where some task's SQL could not be parsed (the summary
  /// holds a "db.*" wildcard write there).
  std::set<std::string> opaque_services;
  /// Distinct services NOCOMMIT locks are held at across the commit
  /// bracket (the plan's 2PC footprint width).
  int two_pc_sites = 0;

  /// Merged access for (service, resource), or nullptr.
  const TaskAccess* Find(const std::string& service,
                         const std::string& resource) const;
  /// Human-readable per-site rendering (msql_lint --conflicts, shell
  /// \conflicts): read/write sets, lock modes, acquisition order,
  /// NOCOMMIT holds.
  std::string Render() const;
};

/// True when two lock keys can denote the same resource ("db.*"
/// wildcards overlap every table of their database).
bool ResourcesOverlap(const std::string& a, const std::string& b);

/// Computes the plan's access summary: walks OPEN/TASK/TRANSFER
/// statements, parses task bodies and compensation blocks, and derives
/// read/write sets plus the acquisition partial order.
AccessSummary SummarizePlan(const translator::Plan& plan);

/// How two concurrently running plans can interact.
enum class ConflictKind {
  kNone,        // disjoint resources, or read/read only
  kReadWrite,   // S vs X on some shared resource: lock waits possible
  kWriteWrite,  // X vs X: lock waits and lost-update races possible
};

/// Pairwise conflict verdict between two access summaries.
struct PairwiseConflict {
  ConflictKind kind = ConflictKind::kNone;
  /// Contended "service:resource" keys, in summary order.
  std::vector<std::string> resources;
  /// The two plans may first-acquire two contended resources in
  /// opposite orders — the static deadlock signature (hold-and-wait is
  /// possible in both directions). Implies kind != kNone.
  bool deadlock_risk = false;
};

/// Classifies what can happen when `a` and `b` run concurrently. Sound:
/// kNone means no runtime lock wait between the two is possible.
PairwiseConflict Classify(const AccessSummary& a, const AccessSummary& b);

/// DL302-DL308: intra-plan conflict diagnostics over one compiled plan
/// and its summary (vital/retry context comes from `plan`).
DiagnosticList AnalyzeConflicts(const translator::Plan& plan,
                                const AccessSummary& summary);

/// DL301: lock-order inversion between two compiled inputs that may run
/// as concurrent sessions. Diagnostics are worded against input
/// `b_index` (1-based, for "input N" messages).
DiagnosticList CheckPlanPair(const AccessSummary& a, const AccessSummary& b,
                             size_t a_index, size_t b_index);

/// Text matrix of pairwise verdicts over a script's summaries (row i /
/// column j = Classify(inputs[i], inputs[j]); '.' none, 'R' read/write,
/// 'W' write/write, '!' deadlock risk). Inputs without a summary show
/// as '-'.
std::string RenderConflictMatrix(
    const std::vector<const AccessSummary*>& summaries);

/// Conflict graph over the admitted sessions of a federation batch.
/// The scheduler registers each admitted session's summary and asks,
/// before admitting a candidate, whether its lock order inverts an
/// admitted session's (predicted deadlock) — if so, admission is
/// delayed until the risky sessions finish.
class ConflictGraph {
 public:
  void Admit(uint64_t id, std::shared_ptr<const AccessSummary> summary);
  void Remove(uint64_t id);

  /// Marks an admitted session as past its lock-acquisition phase: its
  /// next remote call is a prepare/commit/rollback, so it still holds
  /// locks but will request no new ones, and a waits-for cycle through
  /// it can no longer form. WouldRiskDeadlock skips quiesced sessions (a
  /// candidate may well wait on their held locks, it just cannot
  /// deadlock with them).
  void Quiesce(uint64_t id) { quiesced_.insert(id); }
  /// Undoes Quiesce when a compensation or vital-task retry makes the
  /// session issue lock-acquiring calls again.
  void Reactivate(uint64_t id) { quiesced_.erase(id); }

  /// True when admitting `candidate` would create a pairwise deadlock
  /// risk with an admitted session; appends the risky ids to `against`
  /// when given.
  bool WouldRiskDeadlock(const AccessSummary& candidate,
                         std::vector<uint64_t>* against = nullptr) const;

 private:
  std::map<uint64_t, std::shared_ptr<const AccessSummary>> admitted_;
  std::set<uint64_t> quiesced_;
};

}  // namespace msql::analysis

#endif  // MSQL_ANALYSIS_CONFLICT_ANALYZER_H_
