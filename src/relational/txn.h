#ifndef MSQL_RELATIONAL_TXN_H_
#define MSQL_RELATIONAL_TXN_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "relational/database.h"
#include "relational/table.h"

namespace msql::relational {

/// Local transaction lifecycle.
///
/// `kPrepared` is the visible prepared-to-commit state of §3.2.1: the
/// transaction has executed all its operations and holds its locks, and
/// the only legal transitions are Commit and Rollback. Engines whose
/// capability profile lacks 2PC never expose this state.
enum class TxnState { kActive, kPrepared, kCommitted, kAborted };

std::string_view TxnStateName(TxnState state);

/// One entry of a transaction's undo log. Records are appended in
/// execution order and applied in reverse on rollback.
struct UndoRecord {
  enum class Kind {
    kInsert,
    kDelete,
    kUpdate,
    kCreateTable,
    kDropTable,
    kCreateView,
    kDropView,
    kCreateIndex,
    kDropIndex,
  };

  Kind kind;
  std::string database;
  /// Table name — or view name for the view kinds.
  std::string table;
  RowId row_id = 0;
  Row before;  // kDelete / kUpdate: the removed / overwritten row
  std::unique_ptr<Table> dropped_table;  // kDropTable: full table image
  std::unique_ptr<SelectStmt> dropped_view;  // kDropView: definition
  std::string index_name;    // index kinds
  std::string index_column;  // kDropIndex: rebuild target
};

using TxnId = uint64_t;

/// A local transaction: identity, state, undo log and lock set.
class Transaction {
 public:
  explicit Transaction(TxnId id) : id_(id) {}

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  TxnId id() const { return id_; }
  TxnState state() const { return state_; }
  void set_state(TxnState state) { state_ = state; }

  /// Appends an undo record.
  void RecordUndo(UndoRecord record) {
    undo_log_.push_back(std::move(record));
  }

  /// Makes room for `n` more records at once, so a statement that will
  /// write n rows does not regrow (and move) the log while it runs.
  void ReserveUndo(size_t n) {
    const size_t need = undo_log_.size() + n;
    if (need > undo_log_.capacity()) {
      undo_log_.reserve(std::max(need, 2 * undo_log_.capacity()));
    }
  }

  size_t undo_log_size() const { return undo_log_.size(); }

  /// Applies the undo log in reverse against `databases`, emptying it.
  /// Lock release is the caller's (LockManager's) job.
  ///
  /// `fail_after_records` injects a failure after that many records have
  /// been undone (tests of the partial-rollback path); on any failure —
  /// injected or real — the log keeps its unapplied prefix, so
  /// undo_log_size() > 0 identifies a partially rolled-back transaction.
  Status ApplyUndo(
      const std::map<std::string, std::unique_ptr<Database>>& databases,
      size_t fail_after_records = SIZE_MAX);

  /// Discards the undo log (at commit).
  void DiscardUndo() { undo_log_.clear(); }

  /// Lock bookkeeping (owned lock names, "db.table" keys).
  std::set<std::string>& held_locks() { return held_locks_; }

 private:
  TxnId id_;
  TxnState state_ = TxnState::kActive;
  std::vector<UndoRecord> undo_log_;
  std::set<std::string> held_locks_;
};

/// The lock resource of table `table` in database `db`: "db.table".
/// The executor, WAL recovery and the conflict analyzer (whose "db.*" is
/// its wildcard for SQL it cannot parse) all build keys here.
std::string LockKey(std::string_view db, std::string_view table);

/// Strict two-phase table locking: S and X locks on "db.table" keys.
///
/// Locks are flat. No statement of the local dialect operates on a whole
/// database, so there is no database node and no intention mode: each
/// locked table is one entry. X covers S, and a holder of S that asks
/// for X is upgraded in place when no other transaction holds the table.
///
/// Conflict policy is selectable:
///   - kNoWait (default): a conflicting request fails immediately with
///     kAborted. Deterministic, no waits-for graph — the single-session
///     behavior of §3.2 ("local conflicts, failure, deadlock").
///   - kWait: a conflicting request fails with kBusy and records the
///     blocking transactions in `last_conflict()`; the caller (the
///     concurrent federation scheduler) parks the session and retries
///     when a blocker releases. The lock table itself never blocks —
///     waiting is cooperative, on the simulated clock.
class LockManager {
 public:
  enum class Mode { kShared, kExclusive };
  enum class WaitPolicy { kNoWait, kWait };

  void set_wait_policy(WaitPolicy policy) { wait_policy_ = policy; }
  WaitPolicy wait_policy() const { return wait_policy_; }

  /// Acquires (or upgrades) a lock on `resource` for `txn`. On conflict
  /// leaves the lock table unchanged and returns kAborted (no-wait) or
  /// kBusy (wait), recording the holders that blocked the request.
  Status Acquire(Transaction* txn, const std::string& resource, Mode mode);

  /// Releases every lock held by `txn`.
  void ReleaseAll(Transaction* txn);

  /// Transactions that blocked the most recent failed Acquire (empty
  /// after a successful one). The scheduler turns these into waits-for
  /// edges for deadlock detection.
  const std::vector<TxnId>& last_conflict() const { return last_conflict_; }

  /// Number of distinct locked tables (introspection for tests).
  size_t locked_resource_count() const { return locks_.size(); }

  /// Test-only audit trail: when enabled, every grant is appended as
  /// (resource, mode), upgrades included; a request the held mode
  /// already covers grants nothing. The conflict-analyzer property
  /// tests compare this against the statically predicted access sets.
  void set_audit(bool on) {
    audit_ = on;
    if (!on) audit_log_.clear();
  }
  const std::vector<std::pair<std::string, Mode>>& audit_log() const {
    return audit_log_;
  }

 private:
  struct LockEntry {
    /// Per-holder granted mode: several S holders, or one X holder.
    std::map<TxnId, Mode> holders;
  };

  WaitPolicy wait_policy_ = WaitPolicy::kNoWait;
  std::vector<TxnId> last_conflict_;
  std::map<std::string, LockEntry> locks_;
  bool audit_ = false;
  std::vector<std::pair<std::string, Mode>> audit_log_;
};

}  // namespace msql::relational

#endif  // MSQL_RELATIONAL_TXN_H_
