#include "relational/sql/parser.h"

#include <algorithm>
#include <array>

#include "common/string_util.h"
#include "relational/sql/lexer.h"

namespace msql::relational {

Status TokenCursor::Expect(TokenType type, Token* out) {
  if (Peek().type != type) {
    return Status::ParseError("expected " + std::string(TokenTypeName(type)) +
                              " but found " +
                              std::string(TokenTypeName(Peek().type)) +
                              (Peek().text.empty() ? "" : " '" + Peek().text +
                                                              "'") +
                              " at " + Peek().Where());
  }
  Token tok = Get();
  if (out != nullptr) *out = std::move(tok);
  return Status::OK();
}

Status TokenCursor::ExpectKeyword(std::string_view kw) {
  if (!Peek().IsKeyword(kw)) {
    return Status::ParseError("expected keyword " + std::string(kw) +
                              " but found '" + Peek().text + "' at " +
                              Peek().Where());
  }
  Get();
  return Status::OK();
}

Result<std::string> TokenCursor::ExpectIdentifier(std::string_view what) {
  if (Peek().type != TokenType::kIdentifier) {
    return Status::ParseError("expected " + std::string(what) +
                              " but found " +
                              std::string(TokenTypeName(Peek().type)) +
                              " at " + Peek().Where());
  }
  return ToLower(Get().text);
}

Status NestingBound::TooDeep() const {
  return Status::ParseError(std::string(what_) +
                            " nesting exceeds the limit of " +
                            std::to_string(limit_) + " levels at " +
                            cursor_->Peek().Where());
}

bool SqlParser::IsReservedWord(std::string_view word) {
  // "database" starts no statement but stays reserved, so no identifier
  // parses differently than it always has.
  static constexpr std::array<std::string_view, 38> kReserved = {
      "select", "distinct", "from",   "where",  "group",   "by",
      "having", "order",    "asc",    "desc",   "as",      "and",
      "or",     "not",      "in",     "between", "is",     "null",
      "like",   "insert",   "into",   "values", "update",  "set",
      "delete", "create",   "drop",   "table",  "database", "begin",
      "commit", "rollback", "prepare", "true",  "false",   "union",
      "comp",   "use",
  };
  for (auto kw : kReserved) {
    if (EqualsIgnoreCase(word, kw)) return true;
  }
  return false;
}

Result<StatementPtr> SqlParser::ParseStatement() {
  const Token& tok = cursor_->Peek();
  if (tok.type != TokenType::kIdentifier) {
    return Status::ParseError("expected a statement at " + tok.Where());
  }
  if (tok.IsKeyword("select")) {
    MSQL_ASSIGN_OR_RETURN(auto sel, ParseSelect());
    return StatementPtr(std::move(sel));
  }
  if (tok.IsKeyword("insert")) {
    MSQL_ASSIGN_OR_RETURN(auto ins, ParseInsert());
    return StatementPtr(std::move(ins));
  }
  if (tok.IsKeyword("update")) {
    MSQL_ASSIGN_OR_RETURN(auto upd, ParseUpdate());
    return StatementPtr(std::move(upd));
  }
  if (tok.IsKeyword("delete")) {
    MSQL_ASSIGN_OR_RETURN(auto del, ParseDelete());
    return StatementPtr(std::move(del));
  }
  if (tok.IsKeyword("create")) return ParseCreate();
  if (tok.IsKeyword("drop")) return ParseDrop();
  if (tok.IsKeyword("begin")) {
    cursor_->Get();
    // Accept optional "TRANSACTION" noise word.
    cursor_->MatchKeyword("transaction");
    return StatementPtr(
        std::make_unique<TxnControlStmt>(StatementKind::kBegin));
  }
  if (tok.IsKeyword("commit")) {
    cursor_->Get();
    return StatementPtr(
        std::make_unique<TxnControlStmt>(StatementKind::kCommit));
  }
  if (tok.IsKeyword("rollback")) {
    cursor_->Get();
    return StatementPtr(
        std::make_unique<TxnControlStmt>(StatementKind::kRollback));
  }
  if (tok.IsKeyword("prepare")) {
    cursor_->Get();
    return StatementPtr(
        std::make_unique<TxnControlStmt>(StatementKind::kPrepare));
  }
  return Status::ParseError("unknown statement verb '" + tok.text + "' at " +
                            tok.Where());
}

Result<std::unique_ptr<SelectStmt>> SqlParser::ParseSelect() {
  MSQL_RETURN_IF_ERROR(cursor_->ExpectKeyword("select"));
  auto stmt = std::make_unique<SelectStmt>();
  stmt->distinct = cursor_->MatchKeyword("distinct");
  // Select list.
  while (true) {
    MSQL_ASSIGN_OR_RETURN(SelectItem item, ParseSelectItem());
    stmt->items.push_back(std::move(item));
    if (!cursor_->Match(TokenType::kComma)) break;
  }
  // FROM is optional only in MSQL multiple queries, where the expander
  // derives tables; require it for plain SQL too (the engine checks).
  if (cursor_->MatchKeyword("from")) {
    while (true) {
      MSQL_ASSIGN_OR_RETURN(TableRef ref, ParseTableRef());
      stmt->from.push_back(std::move(ref));
      if (!cursor_->Match(TokenType::kComma)) break;
    }
  }
  if (cursor_->MatchKeyword("where")) {
    MSQL_ASSIGN_OR_RETURN(stmt->where, ParseExpression());
  }
  if (cursor_->Peek().IsKeyword("group")) {
    cursor_->Get();
    MSQL_RETURN_IF_ERROR(cursor_->ExpectKeyword("by"));
    while (true) {
      MSQL_ASSIGN_OR_RETURN(ExprPtr e, ParseExpression());
      stmt->group_by.push_back(std::move(e));
      if (!cursor_->Match(TokenType::kComma)) break;
    }
    if (cursor_->MatchKeyword("having")) {
      MSQL_ASSIGN_OR_RETURN(stmt->having, ParseExpression());
    }
  }
  if (cursor_->Peek().IsKeyword("order")) {
    cursor_->Get();
    MSQL_RETURN_IF_ERROR(cursor_->ExpectKeyword("by"));
    while (true) {
      MSQL_ASSIGN_OR_RETURN(ExprPtr e, ParseExpression());
      bool desc = false;
      if (cursor_->MatchKeyword("desc")) {
        desc = true;
      } else {
        cursor_->MatchKeyword("asc");
      }
      stmt->order_by.emplace_back(std::move(e), desc);
      if (!cursor_->Match(TokenType::kComma)) break;
    }
  }
  return stmt;
}

Result<SelectItem> SqlParser::ParseSelectItem() {
  SelectItem item;
  // `*` or `qualifier.*`.
  if (cursor_->Peek().type == TokenType::kStar) {
    cursor_->Get();
    item.is_star = true;
    return item;
  }
  if (cursor_->Peek().type == TokenType::kIdentifier &&
      cursor_->Peek(1).type == TokenType::kDot &&
      cursor_->Peek(2).type == TokenType::kStar) {
    item.star_qualifier = ToLower(cursor_->Get().text);
    cursor_->Get();  // '.'
    cursor_->Get();  // '*'
    item.is_star = true;
    return item;
  }
  MSQL_ASSIGN_OR_RETURN(item.expr, ParseExpression());
  if (cursor_->MatchKeyword("as")) {
    MSQL_ASSIGN_OR_RETURN(item.alias, cursor_->ExpectIdentifier("alias"));
  } else if (cursor_->Peek().type == TokenType::kIdentifier &&
             !IsReservedWord(cursor_->Peek().text)) {
    item.alias = ToLower(cursor_->Get().text);
  }
  return item;
}

Result<TableRef> SqlParser::ParseTableRef() {
  TableRef ref;
  const Token& head = cursor_->Peek();
  ref.line = head.line;
  ref.column = head.column;
  MSQL_ASSIGN_OR_RETURN(std::string first,
                        cursor_->ExpectIdentifier("table name"));
  if (cursor_->Match(TokenType::kDot)) {
    ref.database = std::move(first);
    const Token& table_tok = cursor_->Peek();
    ref.line = table_tok.line;
    ref.column = table_tok.column;
    MSQL_ASSIGN_OR_RETURN(ref.table,
                          cursor_->ExpectIdentifier("table name"));
  } else {
    ref.table = std::move(first);
  }
  if (cursor_->Peek().type == TokenType::kIdentifier &&
      !IsReservedWord(cursor_->Peek().text)) {
    ref.alias = ToLower(cursor_->Get().text);
  }
  return ref;
}

Result<std::unique_ptr<InsertStmt>> SqlParser::ParseInsert() {
  MSQL_RETURN_IF_ERROR(cursor_->ExpectKeyword("insert"));
  MSQL_RETURN_IF_ERROR(cursor_->ExpectKeyword("into"));
  auto stmt = std::make_unique<InsertStmt>();
  MSQL_ASSIGN_OR_RETURN(stmt->table, ParseTableRef());
  if (cursor_->Match(TokenType::kLParen)) {
    while (true) {
      MSQL_ASSIGN_OR_RETURN(std::string col,
                            cursor_->ExpectIdentifier("column name"));
      stmt->columns.push_back(std::move(col));
      if (!cursor_->Match(TokenType::kComma)) break;
    }
    MSQL_RETURN_IF_ERROR(cursor_->Expect(TokenType::kRParen));
  }
  if (cursor_->Peek().IsKeyword("select")) {
    MSQL_ASSIGN_OR_RETURN(stmt->select_source, ParseSelect());
    return stmt;
  }
  MSQL_RETURN_IF_ERROR(cursor_->ExpectKeyword("values"));
  while (true) {
    MSQL_RETURN_IF_ERROR(cursor_->Expect(TokenType::kLParen));
    std::vector<ExprPtr> row;
    while (true) {
      MSQL_ASSIGN_OR_RETURN(ExprPtr e, ParseExpression());
      row.push_back(std::move(e));
      if (!cursor_->Match(TokenType::kComma)) break;
    }
    MSQL_RETURN_IF_ERROR(cursor_->Expect(TokenType::kRParen));
    stmt->values_rows.push_back(std::move(row));
    if (!cursor_->Match(TokenType::kComma)) break;
  }
  return stmt;
}

Result<std::unique_ptr<UpdateStmt>> SqlParser::ParseUpdate() {
  MSQL_RETURN_IF_ERROR(cursor_->ExpectKeyword("update"));
  auto stmt = std::make_unique<UpdateStmt>();
  MSQL_ASSIGN_OR_RETURN(stmt->table, ParseTableRef());
  MSQL_RETURN_IF_ERROR(cursor_->ExpectKeyword("set"));
  while (true) {
    MSQL_ASSIGN_OR_RETURN(std::string col,
                          cursor_->ExpectIdentifier("column name"));
    MSQL_RETURN_IF_ERROR(cursor_->Expect(TokenType::kEq));
    MSQL_ASSIGN_OR_RETURN(ExprPtr value, ParseExpression());
    stmt->assignments.emplace_back(std::move(col), std::move(value));
    if (!cursor_->Match(TokenType::kComma)) break;
  }
  if (cursor_->MatchKeyword("where")) {
    MSQL_ASSIGN_OR_RETURN(stmt->where, ParseExpression());
  }
  return stmt;
}

Result<std::unique_ptr<DeleteStmt>> SqlParser::ParseDelete() {
  MSQL_RETURN_IF_ERROR(cursor_->ExpectKeyword("delete"));
  MSQL_RETURN_IF_ERROR(cursor_->ExpectKeyword("from"));
  auto stmt = std::make_unique<DeleteStmt>();
  MSQL_ASSIGN_OR_RETURN(stmt->table, ParseTableRef());
  if (cursor_->MatchKeyword("where")) {
    MSQL_ASSIGN_OR_RETURN(stmt->where, ParseExpression());
  }
  return stmt;
}

Result<StatementPtr> SqlParser::ParseCreate() {
  MSQL_RETURN_IF_ERROR(cursor_->ExpectKeyword("create"));
  if (cursor_->MatchKeyword("table")) {
    MSQL_ASSIGN_OR_RETURN(auto stmt, ParseCreateTableBody());
    return StatementPtr(std::move(stmt));
  }
  if (cursor_->MatchKeyword("view")) {
    auto stmt = std::make_unique<CreateViewStmt>();
    MSQL_ASSIGN_OR_RETURN(stmt->name, cursor_->ExpectIdentifier("view name"));
    MSQL_RETURN_IF_ERROR(cursor_->ExpectKeyword("as"));
    MSQL_ASSIGN_OR_RETURN(stmt->definition, ParseSelect());
    return StatementPtr(std::move(stmt));
  }
  if (cursor_->MatchKeyword("index")) {
    auto stmt = std::make_unique<CreateIndexStmt>();
    MSQL_ASSIGN_OR_RETURN(stmt->name,
                          cursor_->ExpectIdentifier("index name"));
    MSQL_RETURN_IF_ERROR(cursor_->ExpectKeyword("on"));
    MSQL_ASSIGN_OR_RETURN(stmt->table, ParseTableRef());
    MSQL_RETURN_IF_ERROR(cursor_->Expect(TokenType::kLParen));
    MSQL_ASSIGN_OR_RETURN(stmt->column,
                          cursor_->ExpectIdentifier("column name"));
    MSQL_RETURN_IF_ERROR(cursor_->Expect(TokenType::kRParen));
    return StatementPtr(std::move(stmt));
  }
  return Status::ParseError(
      "expected TABLE, VIEW or INDEX after CREATE at " +
      cursor_->Peek().Where());
}

Result<std::unique_ptr<CreateTableStmt>> SqlParser::ParseCreateTableBody() {
  auto stmt = std::make_unique<CreateTableStmt>();
  MSQL_ASSIGN_OR_RETURN(stmt->table, ParseTableRef());
  MSQL_RETURN_IF_ERROR(cursor_->Expect(TokenType::kLParen));
  while (true) {
    ColumnSpec spec;
    MSQL_ASSIGN_OR_RETURN(spec.name,
                          cursor_->ExpectIdentifier("column name"));
    MSQL_ASSIGN_OR_RETURN(spec.type_name,
                          cursor_->ExpectIdentifier("type name"));
    spec.type_name = ToUpper(spec.type_name);
    if (cursor_->Match(TokenType::kLParen)) {
      Token width;
      MSQL_RETURN_IF_ERROR(cursor_->Expect(TokenType::kInteger, &width));
      spec.width = static_cast<int>(width.int_value);
      MSQL_RETURN_IF_ERROR(cursor_->Expect(TokenType::kRParen));
    }
    stmt->columns.push_back(std::move(spec));
    if (!cursor_->Match(TokenType::kComma)) break;
  }
  MSQL_RETURN_IF_ERROR(cursor_->Expect(TokenType::kRParen));
  return stmt;
}

Result<StatementPtr> SqlParser::ParseDrop() {
  MSQL_RETURN_IF_ERROR(cursor_->ExpectKeyword("drop"));
  if (cursor_->MatchKeyword("table")) {
    auto stmt = std::make_unique<DropTableStmt>();
    MSQL_ASSIGN_OR_RETURN(stmt->table, ParseTableRef());
    return StatementPtr(std::move(stmt));
  }
  if (cursor_->MatchKeyword("view")) {
    auto stmt = std::make_unique<DropViewStmt>();
    MSQL_ASSIGN_OR_RETURN(stmt->name, cursor_->ExpectIdentifier("view name"));
    return StatementPtr(std::move(stmt));
  }
  if (cursor_->MatchKeyword("index")) {
    auto stmt = std::make_unique<DropIndexStmt>();
    MSQL_ASSIGN_OR_RETURN(stmt->name,
                          cursor_->ExpectIdentifier("index name"));
    MSQL_RETURN_IF_ERROR(cursor_->ExpectKeyword("on"));
    MSQL_ASSIGN_OR_RETURN(stmt->table, ParseTableRef());
    return StatementPtr(std::move(stmt));
  }
  return Status::ParseError(
      "expected TABLE, VIEW or INDEX after DROP at " +
      cursor_->Peek().Where());
}

// --------------------------------------------------------------------------
// Expressions
// --------------------------------------------------------------------------

Result<ExprPtr> SqlParser::ParseExpression() {
  NestingBound::Scope nesting(&nesting_);
  MSQL_RETURN_IF_ERROR(nesting_.Descend());
  return ParseOr();
}

Result<ExprPtr> SqlParser::ParseOr() {
  NestingBound::Scope nesting(&nesting_);
  MSQL_ASSIGN_OR_RETURN(ExprPtr left, ParseAnd());
  while (cursor_->MatchKeyword("or")) {
    MSQL_ASSIGN_OR_RETURN(ExprPtr right, ParseAnd());
    left = std::make_unique<BinaryExpr>(BinaryOp::kOr, std::move(left),
                                        std::move(right));
    MSQL_RETURN_IF_ERROR(nesting_.Above());
  }
  return left;
}

Result<ExprPtr> SqlParser::ParseAnd() {
  NestingBound::Scope nesting(&nesting_);
  MSQL_ASSIGN_OR_RETURN(ExprPtr left, ParseNot());
  while (cursor_->MatchKeyword("and")) {
    MSQL_ASSIGN_OR_RETURN(ExprPtr right, ParseNot());
    left = std::make_unique<BinaryExpr>(BinaryOp::kAnd, std::move(left),
                                        std::move(right));
    MSQL_RETURN_IF_ERROR(nesting_.Above());
  }
  return left;
}

Result<ExprPtr> SqlParser::ParseNot() {
  if (cursor_->MatchKeyword("not")) {
    NestingBound::Scope nesting(&nesting_);
    MSQL_RETURN_IF_ERROR(nesting_.Descend());
    MSQL_ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
    return ExprPtr(
        std::make_unique<UnaryExpr>(UnaryOp::kNot, std::move(operand)));
  }
  return ParseComparison();
}

Result<ExprPtr> SqlParser::ParseComparison() {
  // Every node built here sits one level above its operands.
  NestingBound::Scope nesting(&nesting_);
  MSQL_ASSIGN_OR_RETURN(ExprPtr left, ParseAdditive());
  // IS [NOT] NULL.
  if (cursor_->Peek().IsKeyword("is")) {
    cursor_->Get();
    bool negated = cursor_->MatchKeyword("not");
    MSQL_RETURN_IF_ERROR(cursor_->ExpectKeyword("null"));
    MSQL_RETURN_IF_ERROR(nesting_.Above());
    return ExprPtr(std::make_unique<UnaryExpr>(
        negated ? UnaryOp::kIsNotNull : UnaryOp::kIsNull, std::move(left)));
  }
  // [NOT] IN / BETWEEN / LIKE.
  bool negated = false;
  if (cursor_->Peek().IsKeyword("not") &&
      (cursor_->Peek(1).IsKeyword("in") ||
       cursor_->Peek(1).IsKeyword("between") ||
       cursor_->Peek(1).IsKeyword("like"))) {
    cursor_->Get();
    negated = true;
  }
  if (cursor_->MatchKeyword("in")) {
    MSQL_RETURN_IF_ERROR(cursor_->Expect(TokenType::kLParen));
    if (cursor_->Peek().IsKeyword("select")) {
      // expr IN (subquery): an IN list holding the one scalar subquery.
      MSQL_ASSIGN_OR_RETURN(ExprPtr sub, ParseSubquery());
      std::vector<ExprPtr> list;
      list.push_back(std::move(sub));
      MSQL_RETURN_IF_ERROR(nesting_.Above());
      return ExprPtr(std::make_unique<InListExpr>(
          std::move(left), std::move(list), negated));
    }
    std::vector<ExprPtr> list;
    while (true) {
      MSQL_ASSIGN_OR_RETURN(ExprPtr e, ParseExpression());
      list.push_back(std::move(e));
      if (!cursor_->Match(TokenType::kComma)) break;
    }
    MSQL_RETURN_IF_ERROR(cursor_->Expect(TokenType::kRParen));
    MSQL_RETURN_IF_ERROR(nesting_.Above());
    return ExprPtr(std::make_unique<InListExpr>(std::move(left),
                                                std::move(list), negated));
  }
  if (cursor_->MatchKeyword("between")) {
    MSQL_ASSIGN_OR_RETURN(ExprPtr lo, ParseAdditive());
    MSQL_RETURN_IF_ERROR(cursor_->ExpectKeyword("and"));
    MSQL_ASSIGN_OR_RETURN(ExprPtr hi, ParseAdditive());
    MSQL_RETURN_IF_ERROR(nesting_.Above());
    return ExprPtr(std::make_unique<BetweenExpr>(
        std::move(left), std::move(lo), std::move(hi), negated));
  }
  if (cursor_->MatchKeyword("like")) {
    MSQL_ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
    MSQL_RETURN_IF_ERROR(nesting_.Above());
    ExprPtr like = std::make_unique<BinaryExpr>(
        BinaryOp::kLike, std::move(left), std::move(right));
    if (negated) {
      MSQL_RETURN_IF_ERROR(nesting_.Above());
      like = std::make_unique<UnaryExpr>(UnaryOp::kNot, std::move(like));
    }
    return like;
  }
  // Plain comparison operators.
  BinaryOp op;
  switch (cursor_->Peek().type) {
    case TokenType::kEq: op = BinaryOp::kEq; break;
    case TokenType::kNe: op = BinaryOp::kNe; break;
    case TokenType::kLt: op = BinaryOp::kLt; break;
    case TokenType::kLe: op = BinaryOp::kLe; break;
    case TokenType::kGt: op = BinaryOp::kGt; break;
    case TokenType::kGe: op = BinaryOp::kGe; break;
    default:
      return left;
  }
  cursor_->Get();
  MSQL_ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
  MSQL_RETURN_IF_ERROR(nesting_.Above());
  return ExprPtr(std::make_unique<BinaryExpr>(op, std::move(left),
                                              std::move(right)));
}

Result<ExprPtr> SqlParser::ParseAdditive() {
  NestingBound::Scope nesting(&nesting_);
  MSQL_ASSIGN_OR_RETURN(ExprPtr left, ParseMultiplicative());
  while (true) {
    BinaryOp op;
    if (cursor_->Peek().type == TokenType::kPlus) {
      op = BinaryOp::kAdd;
    } else if (cursor_->Peek().type == TokenType::kMinus) {
      op = BinaryOp::kSub;
    } else {
      return left;
    }
    cursor_->Get();
    MSQL_ASSIGN_OR_RETURN(ExprPtr right, ParseMultiplicative());
    left = std::make_unique<BinaryExpr>(op, std::move(left),
                                        std::move(right));
    MSQL_RETURN_IF_ERROR(nesting_.Above());
  }
}

Result<ExprPtr> SqlParser::ParseMultiplicative() {
  NestingBound::Scope nesting(&nesting_);
  MSQL_ASSIGN_OR_RETURN(ExprPtr left, ParseUnary());
  while (true) {
    BinaryOp op;
    if (cursor_->Peek().type == TokenType::kStar) {
      op = BinaryOp::kMul;
    } else if (cursor_->Peek().type == TokenType::kSlash) {
      op = BinaryOp::kDiv;
    } else {
      return left;
    }
    cursor_->Get();
    MSQL_ASSIGN_OR_RETURN(ExprPtr right, ParseUnary());
    left = std::make_unique<BinaryExpr>(op, std::move(left),
                                        std::move(right));
    MSQL_RETURN_IF_ERROR(nesting_.Above());
  }
}

Result<ExprPtr> SqlParser::ParseUnary() {
  if (cursor_->Peek().type != TokenType::kMinus &&
      cursor_->Peek().type != TokenType::kPlus) {
    return ParsePrimary();
  }
  NestingBound::Scope nesting(&nesting_);
  MSQL_RETURN_IF_ERROR(nesting_.Descend());
  if (cursor_->Match(TokenType::kMinus)) {
    MSQL_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
    // Fold -literal for cleaner plans.
    if (operand->kind() == ExprKind::kLiteral) {
      const Value& v = static_cast<const LiteralExpr&>(*operand).value();
      if (v.is_integer()) {
        return ExprPtr(
            std::make_unique<LiteralExpr>(Value::Integer(-v.AsInteger())));
      }
      if (v.is_real()) {
        return ExprPtr(
            std::make_unique<LiteralExpr>(Value::Real(-v.AsReal())));
      }
    }
    return ExprPtr(
        std::make_unique<UnaryExpr>(UnaryOp::kNegate, std::move(operand)));
  }
  cursor_->Get();  // '+'
  return ParseUnary();
}

Result<ExprPtr> SqlParser::ParsePrimary() {
  const Token& tok = cursor_->Peek();
  switch (tok.type) {
    case TokenType::kInteger: {
      Token t = cursor_->Get();
      return ExprPtr(
          std::make_unique<LiteralExpr>(Value::Integer(t.int_value)));
    }
    case TokenType::kReal: {
      Token t = cursor_->Get();
      return ExprPtr(
          std::make_unique<LiteralExpr>(Value::Real(t.real_value)));
    }
    case TokenType::kString: {
      Token t = cursor_->Get();
      return ExprPtr(
          std::make_unique<LiteralExpr>(Value::Text(std::move(t.text))));
    }
    case TokenType::kTilde: {
      if (!options_.msql_extensions) {
        return Status::ParseError("'~' optional-column designator is MSQL "
                                  "only, at " + tok.Where());
      }
      cursor_->Get();
      MSQL_ASSIGN_OR_RETURN(ExprPtr inner, ParseColumnOrFunction());
      if (inner->kind() != ExprKind::kColumnRef) {
        return Status::ParseError(
            "'~' must designate a column reference, at " + tok.Where());
      }
      auto* ref = static_cast<ColumnRefExpr*>(inner.get());
      auto optional = std::make_unique<ColumnRefExpr>(
          ref->qualifier(), ref->name(), /*optional_column=*/true);
      optional->set_position(ref->line(), ref->column());
      return ExprPtr(std::move(optional));
    }
    case TokenType::kLParen: {
      cursor_->Get();
      if (cursor_->Peek().IsKeyword("select")) return ParseSubquery();
      MSQL_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpression());
      MSQL_RETURN_IF_ERROR(cursor_->Expect(TokenType::kRParen));
      return inner;
    }
    case TokenType::kIdentifier: {
      if (tok.IsKeyword("null")) {
        cursor_->Get();
        return ExprPtr(std::make_unique<LiteralExpr>(Value::Null_()));
      }
      if (tok.IsKeyword("true")) {
        cursor_->Get();
        return ExprPtr(std::make_unique<LiteralExpr>(Value::Boolean(true)));
      }
      if (tok.IsKeyword("false")) {
        cursor_->Get();
        return ExprPtr(
            std::make_unique<LiteralExpr>(Value::Boolean(false)));
      }
      if (IsReservedWord(tok.text)) {
        return Status::ParseError("reserved word '" + tok.text +
                                  "' cannot start an expression at " +
                                  tok.Where());
      }
      return ParseColumnOrFunction();
    }
    default:
      return Status::ParseError("unexpected token " +
                                std::string(TokenTypeName(tok.type)) +
                                " in expression at " + tok.Where());
  }
}

Result<ExprPtr> SqlParser::ParseColumnOrFunction() {
  Token first;
  MSQL_RETURN_IF_ERROR(cursor_->Expect(TokenType::kIdentifier, &first));
  std::string name = ToLower(first.text);
  // Function call?
  if (cursor_->Peek().type == TokenType::kLParen) {
    cursor_->Get();
    std::string fname = ToUpper(name);
    if (cursor_->Peek().type == TokenType::kStar) {
      cursor_->Get();
      MSQL_RETURN_IF_ERROR(cursor_->Expect(TokenType::kRParen));
      return ExprPtr(std::make_unique<FunctionCallExpr>(
          fname, std::vector<ExprPtr>{}, /*star=*/true));
    }
    std::vector<ExprPtr> args;
    if (cursor_->Peek().type != TokenType::kRParen) {
      while (true) {
        MSQL_ASSIGN_OR_RETURN(ExprPtr e, ParseExpression());
        args.push_back(std::move(e));
        if (!cursor_->Match(TokenType::kComma)) break;
      }
    }
    MSQL_RETURN_IF_ERROR(cursor_->Expect(TokenType::kRParen));
    return ExprPtr(
        std::make_unique<FunctionCallExpr>(fname, std::move(args)));
  }
  // Column reference, possibly qualified.
  if (cursor_->Peek().type == TokenType::kDot &&
      cursor_->Peek(1).type == TokenType::kIdentifier) {
    cursor_->Get();  // '.'
    Token col_tok = cursor_->Get();
    std::string col = ToLower(col_tok.text);
    auto ref = std::make_unique<ColumnRefExpr>(name, std::move(col));
    ref->set_position(col_tok.line, col_tok.column);
    return ExprPtr(std::move(ref));
  }
  auto ref = std::make_unique<ColumnRefExpr>("", std::move(name));
  ref->set_position(first.line, first.column);
  return ExprPtr(std::move(ref));
}

Result<ExprPtr> SqlParser::ParseSubquery() {
  NestingBound::Scope nesting(&nesting_);
  MSQL_RETURN_IF_ERROR(nesting_.Descend());
  MSQL_ASSIGN_OR_RETURN(auto sub, ParseSelect());
  MSQL_RETURN_IF_ERROR(cursor_->Expect(TokenType::kRParen));
  return ExprPtr(std::make_unique<ScalarSubqueryExpr>(std::move(sub)));
}

Result<StatementPtr> ParseSql(std::string_view text,
                              const ParseOptions& options) {
  LexerOptions lex_options;
  lex_options.percent_in_identifiers = options.msql_extensions;
  MSQL_ASSIGN_OR_RETURN(auto tokens, Tokenize(text, lex_options));
  TokenCursor cursor(std::move(tokens));
  SqlParser parser(&cursor, options);
  MSQL_ASSIGN_OR_RETURN(StatementPtr stmt, parser.ParseStatement());
  cursor.Match(TokenType::kSemicolon);
  if (!cursor.AtEnd()) {
    return Status::ParseError("trailing input after statement at " +
                              cursor.Peek().Where());
  }
  return stmt;
}

Result<std::vector<StatementPtr>> ParseSqlScript(
    std::string_view text, const ParseOptions& options) {
  LexerOptions lex_options;
  lex_options.percent_in_identifiers = options.msql_extensions;
  MSQL_ASSIGN_OR_RETURN(auto tokens, Tokenize(text, lex_options));
  TokenCursor cursor(std::move(tokens));
  SqlParser parser(&cursor, options);
  std::vector<StatementPtr> out;
  while (!cursor.AtEnd()) {
    MSQL_ASSIGN_OR_RETURN(StatementPtr stmt, parser.ParseStatement());
    out.push_back(std::move(stmt));
    while (cursor.Match(TokenType::kSemicolon)) {
    }
  }
  return out;
}

}  // namespace msql::relational
