#ifndef MSQL_DOL_AST_H_
#define MSQL_DOL_AST_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace msql::dol {

/// Execution state of a DOL task, as testable in IF conditions:
/// P = prepared-to-commit, C = committed, A = aborted,
/// X = compensated (semantically undone after commit). kNotRun is the
/// state before the TASK statement executes.
enum class DolTaskState { kNotRun, kPrepared, kCommitted, kAborted,
                          kCompensated };

std::string_view DolTaskStateName(DolTaskState state);

/// Single-letter form used in DOL text (P/C/A/X; '-' for kNotRun).
char DolTaskStateLetter(DolTaskState state);

// ---------------------------------------------------------------------------
// Conditions over task states
// ---------------------------------------------------------------------------

class DolCond;
using DolCondPtr = std::unique_ptr<DolCond>;

enum class DolCondKind { kStateTest, kAnd, kOr, kNot };

/// Boolean condition over task states, e.g. (T1=P) AND (T3=P).
class DolCond {
 public:
  explicit DolCond(DolCondKind kind) : kind_(kind) {}
  virtual ~DolCond() = default;

  DolCond(const DolCond&) = delete;
  DolCond& operator=(const DolCond&) = delete;

  DolCondKind kind() const { return kind_; }
  virtual DolCondPtr Clone() const = 0;
  virtual std::string ToDol() const = 0;

 private:
  DolCondKind kind_;
};

/// task = P|C|A|X.
class StateTestCond : public DolCond {
 public:
  StateTestCond(std::string task, DolTaskState state)
      : DolCond(DolCondKind::kStateTest),
        task_(std::move(task)),
        state_(state) {}

  const std::string& task() const { return task_; }
  DolTaskState state() const { return state_; }

  DolCondPtr Clone() const override {
    return std::make_unique<StateTestCond>(task_, state_);
  }
  std::string ToDol() const override;

 private:
  std::string task_;
  DolTaskState state_;
};

/// AND / OR.
class BinaryCond : public DolCond {
 public:
  BinaryCond(DolCondKind kind, DolCondPtr left, DolCondPtr right)
      : DolCond(kind), left_(std::move(left)), right_(std::move(right)) {}

  const DolCond& left() const { return *left_; }
  const DolCond& right() const { return *right_; }

  DolCondPtr Clone() const override {
    return std::make_unique<BinaryCond>(kind(), left_->Clone(),
                                        right_->Clone());
  }
  std::string ToDol() const override;

 private:
  DolCondPtr left_;
  DolCondPtr right_;
};

/// NOT.
class NotCond : public DolCond {
 public:
  explicit NotCond(DolCondPtr operand)
      : DolCond(DolCondKind::kNot), operand_(std::move(operand)) {}

  const DolCond& operand() const { return *operand_; }

  DolCondPtr Clone() const override {
    return std::make_unique<NotCond>(operand_->Clone());
  }
  std::string ToDol() const override;

 private:
  DolCondPtr operand_;
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

class DolStmt;
using DolStmtPtr = std::unique_ptr<DolStmt>;

enum class DolStmtKind {
  kOpen,
  kTask,
  kParallel,
  kIf,
  kCommit,
  kAbort,
  kCompensate,
  kTransfer,
  kSetStatus,
  kClose,
};

/// Base class of DOL statements.
class DolStmt {
 public:
  explicit DolStmt(DolStmtKind kind) : kind_(kind) {}
  virtual ~DolStmt() = default;

  DolStmt(const DolStmt&) = delete;
  DolStmt& operator=(const DolStmt&) = delete;

  DolStmtKind kind() const { return kind_; }
  /// Renders the statement (indented by `indent` levels, with trailing
  /// newline) back to DOL text.
  virtual std::string ToDol(int indent = 0) const = 0;

 private:
  DolStmtKind kind_;
};

/// OPEN <database> AT <service> AS <alias>;
/// Connects to the named service and opens a session on `database`
/// ("establishes a reliable communication channel", §4.3).
struct OpenStmt : public DolStmt {
  OpenStmt() : DolStmt(DolStmtKind::kOpen) {}

  std::string database;
  std::string service;
  std::string alias;

  std::string ToDol(int indent) const override;
};

/// TASK <name> [NOCOMMIT] FOR <alias> { sql }
///   [COMPENSATION { sql }] ENDTASK;
///
/// Executes the SQL on the alias's session. NOCOMMIT brackets the body
/// in BEGIN ... PREPARE so the task parks in the prepared-to-commit
/// state; without NOCOMMIT the body autocommits. The optional
/// COMPENSATION block registers the semantic undo run by COMPENSATE.
struct TaskStmt : public DolStmt {
  TaskStmt() : DolStmt(DolStmtKind::kTask) {}

  std::string name;
  bool nocommit = false;
  std::string target_alias;
  std::string body_sql;
  std::string compensation_sql;  // empty = none

  std::string ToDol(int indent) const override;
};

/// PARBEGIN <stmts> PAREND; — contained tasks start simultaneously; the
/// block completes when the slowest finishes (the DOL concurrency
/// primitive the translator uses for independent subqueries).
struct ParallelStmt : public DolStmt {
  ParallelStmt() : DolStmt(DolStmtKind::kParallel) {}

  std::vector<DolStmtPtr> body;

  std::string ToDol(int indent) const override;
};

/// IF <cond> THEN BEGIN ... END; [ELSE BEGIN ... END;]
struct IfStmt : public DolStmt {
  IfStmt() : DolStmt(DolStmtKind::kIf) {}

  DolCondPtr condition;
  std::vector<DolStmtPtr> then_branch;
  std::vector<DolStmtPtr> else_branch;

  std::string ToDol(int indent) const override;
};

/// COMMIT t1, t2; — commits prepared tasks.
struct CommitStmt : public DolStmt {
  CommitStmt() : DolStmt(DolStmtKind::kCommit) {}

  std::vector<std::string> tasks;

  std::string ToDol(int indent) const override;
};

/// ABORT t1, t2; — rolls back prepared tasks (no-op on already-aborted).
struct AbortStmt : public DolStmt {
  AbortStmt() : DolStmt(DolStmtKind::kAbort) {}

  std::vector<std::string> tasks;

  std::string ToDol(int indent) const override;
};

/// COMPENSATE t1; — runs the task's COMPENSATION block (autocommit) to
/// semantically undo its committed effects (§3.3).
struct CompensateStmt : public DolStmt {
  CompensateStmt() : DolStmt(DolStmtKind::kCompensate) {}

  std::vector<std::string> tasks;

  std::string ToDol(int indent) const override;
};

/// TRANSFER <task> TO <alias> TABLE <name> ( col TYPE[(w)], ... );
/// TRANSFER <task> TO <alias> TABLE <name> APPEND [( col, ... )];
///
/// Ships a retrieval task's partial result to another service (the
/// "data paths" of §4.1). The first form creates a temporary table on
/// the target session and fills it (decomposed joins collect partial
/// results at the coordinator this way); the APPEND form inserts into
/// an existing table, optionally into the named columns (multidatabase
/// data transfer, §2).
struct TransferStmt : public DolStmt {
  TransferStmt() : DolStmt(DolStmtKind::kTransfer) {}

  std::string task;
  std::string target_alias;
  std::string table;
  /// (name, type_name, width) triples; in APPEND mode only `name` is
  /// meaningful (the target-column list, possibly empty = all columns).
  struct ColumnSpec {
    std::string name;
    std::string type_name;
    int width = 0;
  };
  std::vector<ColumnSpec> columns;
  /// Insert into an existing table instead of creating a temporary one.
  bool append = false;

  std::string ToDol(int indent) const override;
};

/// DOLSTATUS = <n>; — sets the program's return code.
struct SetStatusStmt : public DolStmt {
  SetStatusStmt() : DolStmt(DolStmtKind::kSetStatus) {}

  int value = 0;

  std::string ToDol(int indent) const override;
};

/// CLOSE a1 a2 ...; — closes sessions.
struct CloseStmt : public DolStmt {
  CloseStmt() : DolStmt(DolStmtKind::kClose) {}

  std::vector<std::string> aliases;

  std::string ToDol(int indent) const override;
};

/// A full program: DOLBEGIN <stmts> DOLEND.
struct DolProgram {
  std::vector<DolStmtPtr> statements;

  DolProgram() = default;
  DolProgram(const DolProgram&) = delete;
  DolProgram& operator=(const DolProgram&) = delete;
  DolProgram(DolProgram&&) noexcept = default;
  DolProgram& operator=(DolProgram&&) noexcept = default;

  std::string ToDol() const;
};

}  // namespace msql::dol

#endif  // MSQL_DOL_AST_H_
