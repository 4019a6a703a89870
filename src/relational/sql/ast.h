#ifndef MSQL_RELATIONAL_SQL_AST_H_
#define MSQL_RELATIONAL_SQL_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "relational/value.h"

namespace msql::relational {

class Expr;
using ExprPtr = std::unique_ptr<Expr>;
struct SelectStmt;

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind {
  kLiteral,
  kColumnRef,
  kUnary,
  kBinary,
  kFunctionCall,
  kScalarSubquery,
  kInList,
  kBetween,
};

enum class UnaryOp { kNot, kNegate, kIsNull, kIsNotNull };

enum class BinaryOp {
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
  kAdd, kSub, kMul, kDiv,
  kLike,
};

/// Base class of all SQL expressions. Nodes are heap-allocated and owned
/// through ExprPtr; Clone() performs a deep copy, which the MSQL expander
/// relies on when generating one elementary query per database.
class Expr {
 public:
  explicit Expr(ExprKind kind) : kind_(kind) {}
  virtual ~Expr() = default;

  Expr(const Expr&) = delete;
  Expr& operator=(const Expr&) = delete;

  ExprKind kind() const { return kind_; }

  /// Deep copy.
  virtual ExprPtr Clone() const = 0;

  /// Renders the expression back to SQL text (parenthesized as needed).
  virtual std::string ToSql() const = 0;

 private:
  ExprKind kind_;
};

/// Constant value.
class LiteralExpr : public Expr {
 public:
  explicit LiteralExpr(Value value)
      : Expr(ExprKind::kLiteral), value_(std::move(value)) {}

  const Value& value() const { return value_; }

  ExprPtr Clone() const override {
    return std::make_unique<LiteralExpr>(value_);
  }
  std::string ToSql() const override { return value_.ToSqlLiteral(); }

 private:
  Value value_;
};

/// Reference to a column, optionally qualified by a table (or alias).
///
/// MSQL annotations live here too: `optional_column` records the `~`
/// designator (schema-heterogeneity: drop the column in databases that
/// lack it), and a name containing '%' makes this a *multiple identifier*
/// to be expanded against the GDD. After expansion/decomposition the
/// annotations are cleared and the node is plain SQL.
class ColumnRefExpr : public Expr {
 public:
  ColumnRefExpr(std::string qualifier, std::string name,
                bool optional_column = false)
      : Expr(ExprKind::kColumnRef),
        qualifier_(std::move(qualifier)),
        name_(std::move(name)),
        optional_column_(optional_column) {}

  /// Table name or alias; empty when unqualified.
  const std::string& qualifier() const { return qualifier_; }
  const std::string& name() const { return name_; }
  bool optional_column() const { return optional_column_; }

  void set_qualifier(std::string q) { qualifier_ = std::move(q); }
  void set_name(std::string n) { name_ = std::move(n); }
  void clear_optional() { optional_column_ = false; }

  /// 1-based source position of the name token; 0 when synthesized.
  int line() const { return line_; }
  int column() const { return column_; }
  void set_position(int line, int column) {
    line_ = line;
    column_ = column;
  }

  /// "qualifier.name" or "name".
  std::string FullName() const {
    return qualifier_.empty() ? name_ : qualifier_ + "." + name_;
  }

  ExprPtr Clone() const override {
    auto copy = std::make_unique<ColumnRefExpr>(qualifier_, name_,
                                                optional_column_);
    copy->set_position(line_, column_);
    return copy;
  }
  std::string ToSql() const override {
    return (optional_column_ ? "~" : "") + FullName();
  }

 private:
  std::string qualifier_;
  std::string name_;
  bool optional_column_;
  int line_ = 0;
  int column_ = 0;
};

/// NOT / unary minus / IS [NOT] NULL.
class UnaryExpr : public Expr {
 public:
  UnaryExpr(UnaryOp op, ExprPtr operand)
      : Expr(ExprKind::kUnary), op_(op), operand_(std::move(operand)) {}

  UnaryOp op() const { return op_; }
  const Expr& operand() const { return *operand_; }

  ExprPtr Clone() const override {
    return std::make_unique<UnaryExpr>(op_, operand_->Clone());
  }
  std::string ToSql() const override;

 private:
  UnaryOp op_;
  ExprPtr operand_;
};

/// Binary operator application.
class BinaryExpr : public Expr {
 public:
  BinaryExpr(BinaryOp op, ExprPtr left, ExprPtr right)
      : Expr(ExprKind::kBinary),
        op_(op),
        left_(std::move(left)),
        right_(std::move(right)) {}

  BinaryOp op() const { return op_; }
  const Expr& left() const { return *left_; }
  const Expr& right() const { return *right_; }

  ExprPtr Clone() const override {
    return std::make_unique<BinaryExpr>(op_, left_->Clone(),
                                        right_->Clone());
  }
  std::string ToSql() const override;

 private:
  BinaryOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

/// Function call: aggregates (COUNT/SUM/AVG/MIN/MAX, COUNT(*)) and scalar
/// functions (UPPER/LOWER/LENGTH/ABS/ROUND).
class FunctionCallExpr : public Expr {
 public:
  FunctionCallExpr(std::string name, std::vector<ExprPtr> args,
                   bool star = false)
      : Expr(ExprKind::kFunctionCall),
        name_(std::move(name)),
        args_(std::move(args)),
        star_(star) {}

  /// Upper-cased function name.
  const std::string& name() const { return name_; }
  const std::vector<ExprPtr>& args() const { return args_; }
  /// True for COUNT(*).
  bool star() const { return star_; }

  /// True if `name` is one of the five SQL aggregate functions.
  static bool IsAggregateName(const std::string& upper_name);

  ExprPtr Clone() const override;
  std::string ToSql() const override;

 private:
  std::string name_;
  std::vector<ExprPtr> args_;
  bool star_;
};

/// Scalar subquery: (SELECT ...) used as a value; must yield one column
/// and at most one row (zero rows yield NULL, as in the paper's
/// `WHERE snu = (SELECT MIN(snu) ...)` reservation idiom).
class ScalarSubqueryExpr : public Expr {
 public:
  explicit ScalarSubqueryExpr(std::unique_ptr<SelectStmt> select);
  ~ScalarSubqueryExpr() override;

  const SelectStmt& select() const { return *select_; }
  SelectStmt* mutable_select() { return select_.get(); }

  ExprPtr Clone() const override;
  std::string ToSql() const override;

 private:
  std::unique_ptr<SelectStmt> select_;
};

/// expr [NOT] IN (v1, v2, ...).
class InListExpr : public Expr {
 public:
  InListExpr(ExprPtr operand, std::vector<ExprPtr> list, bool negated)
      : Expr(ExprKind::kInList),
        operand_(std::move(operand)),
        list_(std::move(list)),
        negated_(negated) {}

  const Expr& operand() const { return *operand_; }
  const std::vector<ExprPtr>& list() const { return list_; }
  bool negated() const { return negated_; }

  ExprPtr Clone() const override;
  std::string ToSql() const override;

 private:
  ExprPtr operand_;
  std::vector<ExprPtr> list_;
  bool negated_;
};

/// expr [NOT] BETWEEN lo AND hi.
class BetweenExpr : public Expr {
 public:
  BetweenExpr(ExprPtr operand, ExprPtr lo, ExprPtr hi, bool negated)
      : Expr(ExprKind::kBetween),
        operand_(std::move(operand)),
        lo_(std::move(lo)),
        hi_(std::move(hi)),
        negated_(negated) {}

  const Expr& operand() const { return *operand_; }
  const Expr& lo() const { return *lo_; }
  const Expr& hi() const { return *hi_; }
  bool negated() const { return negated_; }

  ExprPtr Clone() const override {
    return std::make_unique<BetweenExpr>(operand_->Clone(), lo_->Clone(),
                                         hi_->Clone(), negated_);
  }
  std::string ToSql() const override;

 private:
  ExprPtr operand_;
  ExprPtr lo_;
  ExprPtr hi_;
  bool negated_;
};

// ---------------------------------------------------------------------------
// Expression traversal and analysis utilities
// ---------------------------------------------------------------------------

/// Calls `fn` on each direct child of `e`, left to right: the operand of
/// a unary node, the left then right side of a binary one, function
/// arguments, an IN operand then its list, BETWEEN's operand, lo and hi.
/// This is the one enumeration of children, so a walk is its own special
/// cases plus a recursive call through here: pre-order, left to right.
/// Scalar subqueries contribute no children: their interior is a SELECT
/// with its own FROM scope, and a walk that needs it enters
/// `ScalarSubqueryExpr::select()` itself.
template <typename Fn>
void ForEachChild(const Expr& e, Fn&& fn) {
  switch (e.kind()) {
    case ExprKind::kUnary:
      fn(static_cast<const UnaryExpr&>(e).operand());
      break;
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(e);
      fn(b.left());
      fn(b.right());
      break;
    }
    case ExprKind::kFunctionCall:
      for (const auto& arg : static_cast<const FunctionCallExpr&>(e).args()) {
        fn(*arg);
      }
      break;
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(e);
      fn(in.operand());
      for (const auto& v : in.list()) fn(*v);
      break;
    }
    case ExprKind::kBetween: {
      const auto& bt = static_cast<const BetweenExpr&>(e);
      fn(bt.operand());
      fn(bt.lo());
      fn(bt.hi());
      break;
    }
    case ExprKind::kLiteral:
    case ExprKind::kColumnRef:
    case ExprKind::kScalarSubquery:
      break;
  }
}

/// Mutable form, for walks that rewrite nodes in place. Every node is
/// owned through a non-const ExprPtr, so handing the children out
/// mutably is sound.
template <typename Fn>
void ForEachChild(Expr& e, Fn&& fn) {
  ForEachChild(std::as_const(e),
               [&fn](const Expr& child) { fn(const_cast<Expr&>(child)); });
}

/// Splits a predicate into its top-level AND conjuncts, appended to
/// `out` in left-to-right source order. A non-AND expression is its own
/// single conjunct. Because SQL's three-valued AND is TRUE iff every
/// conjunct is TRUE, a filter point may evaluate the conjuncts
/// independently and keep a row only when all of them hold.
void SplitConjuncts(const Expr& e, std::vector<const Expr*>* out);

/// Collects every column reference in the tree, in evaluation order.
/// Does NOT descend into scalar subqueries — their names bind to the
/// subquery's own FROM scope, not the enclosing one.
void CollectColumnRefs(const Expr& e,
                       std::vector<const ColumnRefExpr*>* out);

/// True if the tree contains a scalar subquery node (at any depth).
bool ContainsScalarSubquery(const Expr& e);

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StatementKind {
  kSelect,
  kInsert,
  kUpdate,
  kDelete,
  kCreateTable,
  kDropTable,
  kCreateView,
  kDropView,
  kCreateIndex,
  kDropIndex,
  kBegin,
  kCommit,
  kRollback,
  kPrepare,
};

/// Base class of SQL statements.
class Statement {
 public:
  explicit Statement(StatementKind kind) : kind_(kind) {}
  virtual ~Statement() = default;

  Statement(const Statement&) = delete;
  Statement& operator=(const Statement&) = delete;

  StatementKind kind() const { return kind_; }

  virtual std::unique_ptr<Statement> Clone() const = 0;
  virtual std::string ToSql() const = 0;

 private:
  StatementKind kind_;
};

using StatementPtr = std::unique_ptr<Statement>;

/// Reference to a table in FROM / INSERT / UPDATE / DELETE.
///
/// `database` is the optional MSQL database prefix (`avis.cars`); it is
/// empty in SQL shipped to a NOCONNECT LDBMS, which serves exactly one
/// database. A name containing '%' is a multiple identifier.
struct TableRef {
  std::string database;  // optional db qualifier
  std::string table;
  std::string alias;  // optional
  int line = 0;    // 1-based source position of the table token
  int column = 0;  // (0 when synthesized)

  std::string FullName() const {
    return database.empty() ? table : database + "." + table;
  }
  std::string ToSql() const {
    return FullName() + (alias.empty() ? "" : " " + alias);
  }
  /// Name the table is visible as in expressions: alias if present.
  const std::string& EffectiveName() const {
    return alias.empty() ? table : alias;
  }
  bool operator==(const TableRef& other) const {
    return database == other.database && table == other.table &&
           alias == other.alias;
  }
};

/// One item of a SELECT list: expression with optional alias, or `*` /
/// `qualifier.*`.
struct SelectItem {
  ExprPtr expr;          // null when is_star
  std::string alias;     // optional AS name
  bool is_star = false;  // SELECT * or qualifier.*
  std::string star_qualifier;

  SelectItem() = default;
  SelectItem(ExprPtr e, std::string a)
      : expr(std::move(e)), alias(std::move(a)) {}

  SelectItem CloneItem() const {
    SelectItem out;
    out.expr = expr ? expr->Clone() : nullptr;
    out.alias = alias;
    out.is_star = is_star;
    out.star_qualifier = star_qualifier;
    return out;
  }
  std::string ToSql() const;
};

/// ORDER BY element.
struct OrderItem {
  ExprPtr expr;
  bool descending = false;

  OrderItem() = default;
  OrderItem(ExprPtr e, bool desc) : expr(std::move(e)), descending(desc) {}
  OrderItem CloneItem() const {
    return OrderItem(expr->Clone(), descending);
  }
};

/// SELECT [DISTINCT] items FROM tables [WHERE] [GROUP BY [HAVING]]
/// [ORDER BY].
struct SelectStmt : public Statement {
  SelectStmt() : Statement(StatementKind::kSelect) {}

  bool distinct = false;
  std::vector<SelectItem> items;
  std::vector<TableRef> from;
  ExprPtr where;  // may be null
  std::vector<ExprPtr> group_by;
  ExprPtr having;  // may be null
  std::vector<OrderItem> order_by;

  /// Typed deep copy (Statement::Clone wraps this).
  std::unique_ptr<SelectStmt> CloneSelect() const;
  StatementPtr Clone() const override { return CloneSelect(); }
  std::string ToSql() const override;
};

/// Calls `fn` on the root expression of each clause of `select`, in
/// source order: select-list items (a star has none), WHERE, GROUP BY,
/// HAVING, ORDER BY. FROM holds table references, not expressions, so
/// callers read `select.from` themselves.
template <typename Fn>
void ForEachClause(const SelectStmt& select, Fn&& fn) {
  for (const auto& item : select.items) {
    if (item.expr != nullptr) fn(std::as_const(*item.expr));
  }
  if (select.where != nullptr) fn(std::as_const(*select.where));
  for (const auto& g : select.group_by) fn(std::as_const(*g));
  if (select.having != nullptr) fn(std::as_const(*select.having));
  for (const auto& o : select.order_by) fn(std::as_const(*o.expr));
}

/// Mutable form (see the mutable ForEachChild).
template <typename Fn>
void ForEachClause(SelectStmt& select, Fn&& fn) {
  ForEachClause(std::as_const(select),
                [&fn](const Expr& e) { fn(const_cast<Expr&>(e)); });
}

/// INSERT INTO table [(cols)] VALUES (...), (...) | SELECT ...
///
/// `typed_rows` is a third row source with no SQL text: the typed values
/// a TRANSFER hands to the target LAM (dol/engine.cc). The statement
/// borrows them, so they must outlive its execution, and a Clone
/// borrows the same rows; ToSql does not render them. The executor
/// takes them where it takes the evaluated VALUES rows, so the column
/// list, coercion, locking and undo are those of a parsed INSERT.
struct InsertStmt : public Statement {
  InsertStmt() : Statement(StatementKind::kInsert) {}

  TableRef table;
  std::vector<std::string> columns;  // empty = all, in schema order
  std::vector<std::vector<ExprPtr>> values_rows;
  std::unique_ptr<SelectStmt> select_source;  // alternative to VALUES
  const std::vector<std::vector<Value>>* typed_rows = nullptr;  // borrowed

  StatementPtr Clone() const override;
  std::string ToSql() const override;
};

/// One SET clause of an UPDATE.
struct Assignment {
  /// Target column; may carry MSQL '%' before expansion.
  std::string column;
  ExprPtr value;

  Assignment() = default;
  Assignment(std::string c, ExprPtr v)
      : column(std::move(c)), value(std::move(v)) {}
  Assignment CloneAssignment() const {
    return Assignment(column, value->Clone());
  }
};

/// UPDATE table SET assignments [WHERE].
struct UpdateStmt : public Statement {
  UpdateStmt() : Statement(StatementKind::kUpdate) {}

  TableRef table;
  std::vector<Assignment> assignments;
  ExprPtr where;  // may be null

  StatementPtr Clone() const override;
  std::string ToSql() const override;
};

/// DELETE FROM table [WHERE].
struct DeleteStmt : public Statement {
  DeleteStmt() : Statement(StatementKind::kDelete) {}

  TableRef table;
  ExprPtr where;  // may be null

  StatementPtr Clone() const override;
  std::string ToSql() const override;
};

/// Column definition inside CREATE TABLE (type still by name; resolved at
/// execution).
struct ColumnSpec {
  std::string name;
  std::string type_name;
  int width = 0;

  bool operator==(const ColumnSpec& other) const {
    return name == other.name && type_name == other.type_name &&
           width == other.width;
  }
};

/// CREATE TABLE table (col TYPE[(width)], ...).
struct CreateTableStmt : public Statement {
  CreateTableStmt() : Statement(StatementKind::kCreateTable) {}

  TableRef table;
  std::vector<ColumnSpec> columns;

  StatementPtr Clone() const override;
  std::string ToSql() const override;
};

/// DROP TABLE table.
struct DropTableStmt : public Statement {
  DropTableStmt() : Statement(StatementKind::kDropTable) {}

  TableRef table;

  StatementPtr Clone() const override;
  std::string ToSql() const override;
};

/// CREATE VIEW name AS SELECT ... (local LDBS view; materialized when
/// scanned, exportable via IMPORT VIEW).
struct CreateViewStmt : public Statement {
  CreateViewStmt() : Statement(StatementKind::kCreateView) {}

  std::string name;
  std::unique_ptr<SelectStmt> definition;

  StatementPtr Clone() const override;
  std::string ToSql() const override;
};

/// DROP VIEW name.
struct DropViewStmt : public Statement {
  DropViewStmt() : Statement(StatementKind::kDropView) {}

  std::string name;

  StatementPtr Clone() const override;
  std::string ToSql() const override;
};

/// CREATE INDEX name ON table (column) — secondary equality index.
struct CreateIndexStmt : public Statement {
  CreateIndexStmt() : Statement(StatementKind::kCreateIndex) {}

  std::string name;
  TableRef table;
  std::string column;

  StatementPtr Clone() const override;
  std::string ToSql() const override;
};

/// DROP INDEX name ON table.
struct DropIndexStmt : public Statement {
  DropIndexStmt() : Statement(StatementKind::kDropIndex) {}

  std::string name;
  TableRef table;

  StatementPtr Clone() const override;
  std::string ToSql() const override;
};

/// BEGIN / COMMIT / ROLLBACK / PREPARE transaction-control statements.
struct TxnControlStmt : public Statement {
  explicit TxnControlStmt(StatementKind kind) : Statement(kind) {}

  StatementPtr Clone() const override {
    return std::make_unique<TxnControlStmt>(kind());
  }
  std::string ToSql() const override;
};

}  // namespace msql::relational

#endif  // MSQL_RELATIONAL_SQL_AST_H_
