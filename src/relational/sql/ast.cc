#include "relational/sql/ast.h"

#include "common/string_util.h"

namespace msql::relational {

namespace {

std::string_view BinaryOpSql(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq: return "=";
    case BinaryOp::kNe: return "<>";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kAnd: return "AND";
    case BinaryOp::kOr: return "OR";
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kLike: return "LIKE";
  }
  return "?";
}

/// Binding strength of a binary operator (higher binds tighter).
int Precedence(BinaryOp op) {
  switch (op) {
    case BinaryOp::kOr: return 1;
    case BinaryOp::kAnd: return 2;
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
    case BinaryOp::kLike:
      return 3;
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
      return 4;
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
      return 5;
  }
  return 0;
}

bool IsAssociative(BinaryOp op) {
  return op == BinaryOp::kAnd || op == BinaryOp::kOr ||
         op == BinaryOp::kAdd || op == BinaryOp::kMul;
}

/// True if rendering `e` as an operand requires parentheses to be
/// unambiguous. Non-binary compound nodes (NOT, BETWEEN, IN, ...) are
/// always parenthesized for clarity; binary nodes follow precedence.
bool NeedsParens(const Expr& e) {
  switch (e.kind()) {
    case ExprKind::kLiteral:
    case ExprKind::kColumnRef:
    case ExprKind::kFunctionCall:
    case ExprKind::kScalarSubquery:
      return false;
    default:
      return true;
  }
}

std::string OperandSql(const Expr& e) {
  return NeedsParens(e) ? "(" + e.ToSql() + ")" : e.ToSql();
}

/// Operand rendering inside a binary expression of operator `parent`:
/// parenthesizes only when precedence (or non-associative equal
/// precedence on the right) demands it.
std::string BinaryOperandSql(const Expr& e, BinaryOp parent,
                             bool is_right) {
  if (e.kind() == ExprKind::kBinary) {
    const auto& child = static_cast<const BinaryExpr&>(e);
    int parent_prec = Precedence(parent);
    int child_prec = Precedence(child.op());
    bool parens;
    if (child_prec > parent_prec) {
      parens = false;
    } else if (child_prec < parent_prec) {
      parens = true;
    } else {
      parens = is_right &&
               !(child.op() == parent && IsAssociative(parent));
    }
    return parens ? "(" + e.ToSql() + ")" : e.ToSql();
  }
  return OperandSql(e);
}

}  // namespace

std::string UnaryExpr::ToSql() const {
  // A prefix over the same prefix needs no parentheses, so a chain of n
  // NOTs or minuses re-parses n levels deep, as written. Two minuses
  // keep a space between them: "--" would start a comment.
  const bool chained = operand_->kind() == ExprKind::kUnary &&
                       static_cast<const UnaryExpr&>(*operand_).op() == op_;
  switch (op_) {
    case UnaryOp::kNot:
      return "NOT " + (chained ? operand_->ToSql() : OperandSql(*operand_));
    case UnaryOp::kNegate:
      return chained ? "- " + operand_->ToSql()
                     : "-" + OperandSql(*operand_);
    case UnaryOp::kIsNull:
      return OperandSql(*operand_) + " IS NULL";
    case UnaryOp::kIsNotNull:
      return OperandSql(*operand_) + " IS NOT NULL";
  }
  return "?";
}

std::string BinaryExpr::ToSql() const {
  return BinaryOperandSql(*left_, op_, /*is_right=*/false) + " " +
         std::string(BinaryOpSql(op_)) + " " +
         BinaryOperandSql(*right_, op_, /*is_right=*/true);
}

bool FunctionCallExpr::IsAggregateName(const std::string& upper_name) {
  return upper_name == "COUNT" || upper_name == "SUM" ||
         upper_name == "AVG" || upper_name == "MIN" || upper_name == "MAX";
}

ExprPtr FunctionCallExpr::Clone() const {
  std::vector<ExprPtr> args;
  args.reserve(args_.size());
  for (const auto& a : args_) args.push_back(a->Clone());
  return std::make_unique<FunctionCallExpr>(name_, std::move(args), star_);
}

std::string FunctionCallExpr::ToSql() const {
  std::string out = name_ + "(";
  if (star_) {
    out += "*";
  } else {
    for (size_t i = 0; i < args_.size(); ++i) {
      if (i > 0) out += ", ";
      out += args_[i]->ToSql();
    }
  }
  out += ")";
  return out;
}

ScalarSubqueryExpr::ScalarSubqueryExpr(std::unique_ptr<SelectStmt> select)
    : Expr(ExprKind::kScalarSubquery), select_(std::move(select)) {}

ScalarSubqueryExpr::~ScalarSubqueryExpr() = default;

ExprPtr ScalarSubqueryExpr::Clone() const {
  return std::make_unique<ScalarSubqueryExpr>(select_->CloneSelect());
}

std::string ScalarSubqueryExpr::ToSql() const {
  return "(" + select_->ToSql() + ")";
}

ExprPtr InListExpr::Clone() const {
  std::vector<ExprPtr> list;
  list.reserve(list_.size());
  for (const auto& e : list_) list.push_back(e->Clone());
  return std::make_unique<InListExpr>(operand_->Clone(), std::move(list),
                                      negated_);
}

std::string InListExpr::ToSql() const {
  std::string out = OperandSql(*operand_);
  out += negated_ ? " NOT IN (" : " IN (";
  for (size_t i = 0; i < list_.size(); ++i) {
    if (i > 0) out += ", ";
    out += list_[i]->ToSql();
  }
  out += ")";
  return out;
}

std::string BetweenExpr::ToSql() const {
  return OperandSql(*operand_) + (negated_ ? " NOT BETWEEN " : " BETWEEN ") +
         OperandSql(*lo_) + " AND " + OperandSql(*hi_);
}

std::string SelectItem::ToSql() const {
  if (is_star) {
    return star_qualifier.empty() ? "*" : star_qualifier + ".*";
  }
  std::string out = expr->ToSql();
  if (!alias.empty()) out += " AS " + alias;
  return out;
}

std::unique_ptr<SelectStmt> SelectStmt::CloneSelect() const {
  auto out = std::make_unique<SelectStmt>();
  out->distinct = distinct;
  out->items.reserve(items.size());
  for (const auto& item : items) out->items.push_back(item.CloneItem());
  out->from = from;
  out->where = where ? where->Clone() : nullptr;
  out->group_by.reserve(group_by.size());
  for (const auto& g : group_by) out->group_by.push_back(g->Clone());
  out->having = having ? having->Clone() : nullptr;
  out->order_by.reserve(order_by.size());
  for (const auto& o : order_by) out->order_by.push_back(o.CloneItem());
  return out;
}

std::string SelectStmt::ToSql() const {
  std::string out = "SELECT ";
  if (distinct) out += "DISTINCT ";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += items[i].ToSql();
  }
  if (!from.empty()) {
    out += " FROM ";
    for (size_t i = 0; i < from.size(); ++i) {
      if (i > 0) out += ", ";
      out += from[i].ToSql();
    }
  }
  if (where) out += " WHERE " + where->ToSql();
  if (!group_by.empty()) {
    out += " GROUP BY ";
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += group_by[i]->ToSql();
    }
  }
  if (having) out += " HAVING " + having->ToSql();
  if (!order_by.empty()) {
    out += " ORDER BY ";
    for (size_t i = 0; i < order_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += order_by[i].expr->ToSql();
      if (order_by[i].descending) out += " DESC";
    }
  }
  return out;
}

StatementPtr InsertStmt::Clone() const {
  auto out = std::make_unique<InsertStmt>();
  out->table = table;
  out->columns = columns;
  out->values_rows.reserve(values_rows.size());
  for (const auto& row : values_rows) {
    std::vector<ExprPtr> cloned;
    cloned.reserve(row.size());
    for (const auto& e : row) cloned.push_back(e->Clone());
    out->values_rows.push_back(std::move(cloned));
  }
  if (select_source) out->select_source = select_source->CloneSelect();
  out->typed_rows = typed_rows;
  return out;
}

std::string InsertStmt::ToSql() const {
  std::string out = "INSERT INTO " + table.ToSql();
  if (!columns.empty()) {
    out += " (" + Join(columns, ", ") + ")";
  }
  if (select_source) {
    out += " " + select_source->ToSql();
    return out;
  }
  out += " VALUES ";
  for (size_t r = 0; r < values_rows.size(); ++r) {
    if (r > 0) out += ", ";
    out += "(";
    for (size_t i = 0; i < values_rows[r].size(); ++i) {
      if (i > 0) out += ", ";
      out += values_rows[r][i]->ToSql();
    }
    out += ")";
  }
  return out;
}

StatementPtr UpdateStmt::Clone() const {
  auto out = std::make_unique<UpdateStmt>();
  out->table = table;
  out->assignments.reserve(assignments.size());
  for (const auto& a : assignments) {
    out->assignments.push_back(a.CloneAssignment());
  }
  out->where = where ? where->Clone() : nullptr;
  return out;
}

std::string UpdateStmt::ToSql() const {
  std::string out = "UPDATE " + table.ToSql() + " SET ";
  for (size_t i = 0; i < assignments.size(); ++i) {
    if (i > 0) out += ", ";
    out += assignments[i].column + " = " + assignments[i].value->ToSql();
  }
  if (where) out += " WHERE " + where->ToSql();
  return out;
}

StatementPtr DeleteStmt::Clone() const {
  auto out = std::make_unique<DeleteStmt>();
  out->table = table;
  out->where = where ? where->Clone() : nullptr;
  return out;
}

std::string DeleteStmt::ToSql() const {
  std::string out = "DELETE FROM " + table.ToSql();
  if (where) out += " WHERE " + where->ToSql();
  return out;
}

StatementPtr CreateTableStmt::Clone() const {
  auto out = std::make_unique<CreateTableStmt>();
  out->table = table;
  out->columns = columns;
  return out;
}

std::string CreateTableStmt::ToSql() const {
  std::string out = "CREATE TABLE " + table.FullName() + " (";
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) out += ", ";
    out += columns[i].name + " " + columns[i].type_name;
    if (columns[i].width > 0) {
      out += "(" + std::to_string(columns[i].width) + ")";
    }
  }
  out += ")";
  return out;
}

StatementPtr DropTableStmt::Clone() const {
  auto out = std::make_unique<DropTableStmt>();
  out->table = table;
  return out;
}

std::string DropTableStmt::ToSql() const {
  return "DROP TABLE " + table.FullName();
}

StatementPtr CreateViewStmt::Clone() const {
  auto out = std::make_unique<CreateViewStmt>();
  out->name = name;
  out->definition = definition->CloneSelect();
  return out;
}

std::string CreateViewStmt::ToSql() const {
  return "CREATE VIEW " + name + " AS " + definition->ToSql();
}

StatementPtr DropViewStmt::Clone() const {
  auto out = std::make_unique<DropViewStmt>();
  out->name = name;
  return out;
}

std::string DropViewStmt::ToSql() const { return "DROP VIEW " + name; }

StatementPtr CreateIndexStmt::Clone() const {
  auto out = std::make_unique<CreateIndexStmt>();
  out->name = name;
  out->table = table;
  out->column = column;
  return out;
}

std::string CreateIndexStmt::ToSql() const {
  return "CREATE INDEX " + name + " ON " + table.FullName() + " (" +
         column + ")";
}

StatementPtr DropIndexStmt::Clone() const {
  auto out = std::make_unique<DropIndexStmt>();
  out->name = name;
  out->table = table;
  return out;
}

std::string DropIndexStmt::ToSql() const {
  return "DROP INDEX " + name + " ON " + table.FullName();
}

void SplitConjuncts(const Expr& e, std::vector<const Expr*>* out) {
  if (e.kind() == ExprKind::kBinary) {
    const auto& b = static_cast<const BinaryExpr&>(e);
    if (b.op() == BinaryOp::kAnd) {
      SplitConjuncts(b.left(), out);
      SplitConjuncts(b.right(), out);
      return;
    }
  }
  out->push_back(&e);
}

void CollectColumnRefs(const Expr& e,
                       std::vector<const ColumnRefExpr*>* out) {
  if (e.kind() == ExprKind::kColumnRef) {
    out->push_back(&static_cast<const ColumnRefExpr&>(e));
    return;
  }
  ForEachChild(e,
               [out](const Expr& child) { CollectColumnRefs(child, out); });
}

bool ContainsScalarSubquery(const Expr& e) {
  if (e.kind() == ExprKind::kScalarSubquery) return true;
  bool found = false;
  ForEachChild(e, [&found](const Expr& child) {
    if (!found) found = ContainsScalarSubquery(child);
  });
  return found;
}

std::string TxnControlStmt::ToSql() const {
  switch (kind()) {
    case StatementKind::kBegin: return "BEGIN";
    case StatementKind::kCommit: return "COMMIT";
    case StatementKind::kRollback: return "ROLLBACK";
    case StatementKind::kPrepare: return "PREPARE";
    default: return "?";
  }
}

}  // namespace msql::relational
