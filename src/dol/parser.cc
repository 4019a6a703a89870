#include "dol/parser.h"

#include "common/string_util.h"
#include "relational/sql/lexer.h"

namespace msql::dol {

using relational::NestingBound;
using relational::Token;
using relational::TokenCursor;
using relational::TokenType;

namespace {

std::string TokenText(const Token& tok) {
  switch (tok.type) {
    case TokenType::kIdentifier:
      return tok.text;
    case TokenType::kString: {
      std::string out = "'";
      for (char c : tok.text) {
        if (c == '\'') out += "''";
        else out += c;
      }
      out += "'";
      return out;
    }
    case TokenType::kInteger:
    case TokenType::kReal:
      return tok.text;
    case TokenType::kLParen: return "(";
    case TokenType::kRParen: return ")";
    case TokenType::kComma: return ",";
    case TokenType::kSemicolon: return ";";
    case TokenType::kDot: return ".";
    case TokenType::kEq: return "=";
    case TokenType::kNe: return "<>";
    case TokenType::kLt: return "<";
    case TokenType::kLe: return "<=";
    case TokenType::kGt: return ">";
    case TokenType::kGe: return ">=";
    case TokenType::kPlus: return "+";
    case TokenType::kMinus: return "-";
    case TokenType::kStar: return "*";
    case TokenType::kSlash: return "/";
    case TokenType::kTilde: return "~";
    case TokenType::kLBrace: return "{";
    case TokenType::kRBrace: return "}";
    case TokenType::kEof: return "";
  }
  return "";
}

class DolParser {
 public:
  explicit DolParser(TokenCursor* cursor)
      : cursor_(cursor), nesting_(kMaxDolNesting, "DOL", cursor) {}

  Result<DolProgram> ParseProgram() {
    MSQL_RETURN_IF_ERROR(cursor_->ExpectKeyword("dolbegin"));
    DolProgram program;
    while (!cursor_->Peek().IsKeyword("dolend")) {
      if (cursor_->AtEnd()) {
        return Status::ParseError("DOL program is missing DOLEND");
      }
      MSQL_ASSIGN_OR_RETURN(DolStmtPtr stmt, ParseStatement());
      program.statements.push_back(std::move(stmt));
    }
    cursor_->Get();  // DOLEND
    if (!cursor_->AtEnd()) {
      return Status::ParseError("trailing input after DOLEND at " +
                                cursor_->Peek().Where());
    }
    return program;
  }

 private:
  Result<DolStmtPtr> ParseStatement() {
    const Token& tok = cursor_->Peek();
    if (tok.IsKeyword("open")) return ParseOpen();
    if (tok.IsKeyword("task")) return ParseTask();
    if (tok.IsKeyword("parbegin")) return ParseParallel();
    if (tok.IsKeyword("if")) return ParseIf();
    if (tok.IsKeyword("commit")) return ParseTaskList<CommitStmt>("commit");
    if (tok.IsKeyword("abort")) return ParseTaskList<AbortStmt>("abort");
    if (tok.IsKeyword("compensate")) {
      return ParseTaskList<CompensateStmt>("compensate");
    }
    if (tok.IsKeyword("transfer")) return ParseTransfer();
    if (tok.IsKeyword("dolstatus")) return ParseSetStatus();
    if (tok.IsKeyword("close")) return ParseClose();
    return Status::ParseError("unknown DOL statement '" + tok.text +
                              "' at " + tok.Where());
  }

  Result<DolStmtPtr> ParseOpen() {
    cursor_->Get();  // OPEN
    auto stmt = std::make_unique<OpenStmt>();
    MSQL_ASSIGN_OR_RETURN(stmt->database,
                          cursor_->ExpectIdentifier("database name"));
    MSQL_RETURN_IF_ERROR(cursor_->ExpectKeyword("at"));
    MSQL_ASSIGN_OR_RETURN(stmt->service,
                          cursor_->ExpectIdentifier("service name"));
    MSQL_RETURN_IF_ERROR(cursor_->ExpectKeyword("as"));
    MSQL_ASSIGN_OR_RETURN(stmt->alias, cursor_->ExpectIdentifier("alias"));
    MSQL_RETURN_IF_ERROR(ExpectSemicolon());
    return DolStmtPtr(std::move(stmt));
  }

  /// Captures a `{ ... }` body, re-rendered to text.
  Result<std::string> ParseBracedBody() {
    MSQL_RETURN_IF_ERROR(cursor_->Expect(TokenType::kLBrace));
    std::vector<Token> tokens;
    int depth = 1;
    while (true) {
      const Token& tok = cursor_->Peek();
      if (tok.type == TokenType::kEof) {
        return Status::ParseError("unterminated '{' body at " + tok.Where());
      }
      if (tok.type == TokenType::kLBrace) ++depth;
      if (tok.type == TokenType::kRBrace) {
        --depth;
        if (depth == 0) {
          cursor_->Get();
          return RenderTokens(tokens);
        }
      }
      tokens.push_back(cursor_->Get());
    }
  }

  Result<DolStmtPtr> ParseTask() {
    cursor_->Get();  // TASK
    auto stmt = std::make_unique<TaskStmt>();
    MSQL_ASSIGN_OR_RETURN(stmt->name, cursor_->ExpectIdentifier("task name"));
    stmt->nocommit = cursor_->MatchKeyword("nocommit");
    MSQL_RETURN_IF_ERROR(cursor_->ExpectKeyword("for"));
    MSQL_ASSIGN_OR_RETURN(stmt->target_alias,
                          cursor_->ExpectIdentifier("target alias"));
    MSQL_ASSIGN_OR_RETURN(stmt->body_sql, ParseBracedBody());
    if (cursor_->MatchKeyword("compensation")) {
      MSQL_ASSIGN_OR_RETURN(stmt->compensation_sql, ParseBracedBody());
    }
    MSQL_RETURN_IF_ERROR(cursor_->ExpectKeyword("endtask"));
    MSQL_RETURN_IF_ERROR(ExpectSemicolon());
    return DolStmtPtr(std::move(stmt));
  }

  Result<DolStmtPtr> ParseParallel() {
    cursor_->Get();  // PARBEGIN
    NestingBound::Scope nesting(&nesting_);
    MSQL_RETURN_IF_ERROR(nesting_.Descend());
    auto stmt = std::make_unique<ParallelStmt>();
    while (!cursor_->Peek().IsKeyword("parend")) {
      if (cursor_->AtEnd()) {
        return Status::ParseError("PARBEGIN without PAREND");
      }
      MSQL_ASSIGN_OR_RETURN(DolStmtPtr inner, ParseStatement());
      stmt->body.push_back(std::move(inner));
    }
    cursor_->Get();  // PAREND
    MSQL_RETURN_IF_ERROR(ExpectSemicolon());
    return DolStmtPtr(std::move(stmt));
  }

  Result<DolCondPtr> ParseCond() { return ParseOrCond(); }

  Result<DolCondPtr> ParseOrCond() {
    NestingBound::Scope nesting(&nesting_);
    MSQL_ASSIGN_OR_RETURN(DolCondPtr left, ParseAndCond());
    while (cursor_->MatchKeyword("or")) {
      MSQL_ASSIGN_OR_RETURN(DolCondPtr right, ParseAndCond());
      left = std::make_unique<BinaryCond>(DolCondKind::kOr, std::move(left),
                                          std::move(right));
      MSQL_RETURN_IF_ERROR(nesting_.Above());
    }
    return left;
  }

  Result<DolCondPtr> ParseAndCond() {
    NestingBound::Scope nesting(&nesting_);
    MSQL_ASSIGN_OR_RETURN(DolCondPtr left, ParseNotCond());
    while (cursor_->MatchKeyword("and")) {
      MSQL_ASSIGN_OR_RETURN(DolCondPtr right, ParseNotCond());
      left = std::make_unique<BinaryCond>(DolCondKind::kAnd,
                                          std::move(left), std::move(right));
      MSQL_RETURN_IF_ERROR(nesting_.Above());
    }
    return left;
  }

  Result<DolCondPtr> ParseNotCond() {
    if (cursor_->MatchKeyword("not")) {
      NestingBound::Scope nesting(&nesting_);
      MSQL_RETURN_IF_ERROR(nesting_.Descend());
      MSQL_ASSIGN_OR_RETURN(DolCondPtr inner, ParseNotCond());
      return DolCondPtr(std::make_unique<NotCond>(std::move(inner)));
    }
    return ParsePrimaryCond();
  }

  Result<DolCondPtr> ParsePrimaryCond() {
    if (cursor_->Match(TokenType::kLParen)) {
      NestingBound::Scope nesting(&nesting_);
      MSQL_RETURN_IF_ERROR(nesting_.Descend());
      MSQL_ASSIGN_OR_RETURN(DolCondPtr inner, ParseCond());
      MSQL_RETURN_IF_ERROR(cursor_->Expect(TokenType::kRParen));
      return inner;
    }
    MSQL_ASSIGN_OR_RETURN(std::string task,
                          cursor_->ExpectIdentifier("task name"));
    MSQL_RETURN_IF_ERROR(cursor_->Expect(TokenType::kEq));
    MSQL_ASSIGN_OR_RETURN(std::string letter,
                          cursor_->ExpectIdentifier("task state letter"));
    DolTaskState state;
    std::string upper = ToUpper(letter);
    if (upper == "P") state = DolTaskState::kPrepared;
    else if (upper == "C") state = DolTaskState::kCommitted;
    else if (upper == "A") state = DolTaskState::kAborted;
    else if (upper == "X") state = DolTaskState::kCompensated;
    else {
      return Status::ParseError("unknown task state letter '" + letter +
                                "' (expected P, C, A or X)");
    }
    return DolCondPtr(
        std::make_unique<StateTestCond>(std::move(task), state));
  }

  Result<std::vector<DolStmtPtr>> ParseBranch() {
    std::vector<DolStmtPtr> out;
    if (cursor_->MatchKeyword("begin")) {
      while (!cursor_->Peek().IsKeyword("end")) {
        if (cursor_->AtEnd()) {
          return Status::ParseError("BEGIN block without END");
        }
        MSQL_ASSIGN_OR_RETURN(DolStmtPtr stmt, ParseStatement());
        out.push_back(std::move(stmt));
      }
      cursor_->Get();  // END
      cursor_->Match(TokenType::kSemicolon);
      return out;
    }
    MSQL_ASSIGN_OR_RETURN(DolStmtPtr stmt, ParseStatement());
    out.push_back(std::move(stmt));
    return out;
  }

  Result<DolStmtPtr> ParseIf() {
    cursor_->Get();  // IF
    auto stmt = std::make_unique<IfStmt>();
    MSQL_ASSIGN_OR_RETURN(stmt->condition, ParseCond());
    MSQL_RETURN_IF_ERROR(cursor_->ExpectKeyword("then"));
    NestingBound::Scope nesting(&nesting_);
    MSQL_RETURN_IF_ERROR(nesting_.Descend());
    MSQL_ASSIGN_OR_RETURN(stmt->then_branch, ParseBranch());
    if (cursor_->MatchKeyword("else")) {
      MSQL_ASSIGN_OR_RETURN(stmt->else_branch, ParseBranch());
    }
    return DolStmtPtr(std::move(stmt));
  }

  template <typename StmtT>
  Result<DolStmtPtr> ParseTaskList(std::string_view keyword) {
    MSQL_RETURN_IF_ERROR(cursor_->ExpectKeyword(keyword));
    auto stmt = std::make_unique<StmtT>();
    while (true) {
      MSQL_ASSIGN_OR_RETURN(std::string task,
                            cursor_->ExpectIdentifier("task name"));
      stmt->tasks.push_back(std::move(task));
      if (!cursor_->Match(TokenType::kComma)) break;
    }
    MSQL_RETURN_IF_ERROR(ExpectSemicolon());
    return DolStmtPtr(std::move(stmt));
  }

  Result<DolStmtPtr> ParseTransfer() {
    cursor_->Get();  // TRANSFER
    auto stmt = std::make_unique<TransferStmt>();
    MSQL_ASSIGN_OR_RETURN(stmt->task, cursor_->ExpectIdentifier("task name"));
    MSQL_RETURN_IF_ERROR(cursor_->ExpectKeyword("to"));
    MSQL_ASSIGN_OR_RETURN(stmt->target_alias,
                          cursor_->ExpectIdentifier("alias"));
    MSQL_RETURN_IF_ERROR(cursor_->ExpectKeyword("table"));
    MSQL_ASSIGN_OR_RETURN(stmt->table,
                          cursor_->ExpectIdentifier("table name"));
    if (cursor_->MatchKeyword("append")) {
      stmt->append = true;
      if (cursor_->Match(TokenType::kLParen)) {
        while (true) {
          TransferStmt::ColumnSpec spec;
          MSQL_ASSIGN_OR_RETURN(spec.name,
                                cursor_->ExpectIdentifier("column name"));
          stmt->columns.push_back(std::move(spec));
          if (!cursor_->Match(TokenType::kComma)) break;
        }
        MSQL_RETURN_IF_ERROR(cursor_->Expect(TokenType::kRParen));
      }
      MSQL_RETURN_IF_ERROR(ExpectSemicolon());
      return DolStmtPtr(std::move(stmt));
    }
    MSQL_RETURN_IF_ERROR(cursor_->Expect(TokenType::kLParen));
    while (true) {
      TransferStmt::ColumnSpec spec;
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
    MSQL_RETURN_IF_ERROR(ExpectSemicolon());
    return DolStmtPtr(std::move(stmt));
  }

  Result<DolStmtPtr> ParseSetStatus() {
    cursor_->Get();  // DOLSTATUS
    MSQL_RETURN_IF_ERROR(cursor_->Expect(TokenType::kEq));
    auto stmt = std::make_unique<SetStatusStmt>();
    bool negative = cursor_->Match(TokenType::kMinus);
    Token value;
    MSQL_RETURN_IF_ERROR(cursor_->Expect(TokenType::kInteger, &value));
    stmt->value = static_cast<int>(value.int_value);
    if (negative) stmt->value = -stmt->value;
    MSQL_RETURN_IF_ERROR(ExpectSemicolon());
    return DolStmtPtr(std::move(stmt));
  }

  Result<DolStmtPtr> ParseClose() {
    cursor_->Get();  // CLOSE
    auto stmt = std::make_unique<CloseStmt>();
    while (cursor_->Peek().type == TokenType::kIdentifier) {
      MSQL_ASSIGN_OR_RETURN(std::string alias,
                            cursor_->ExpectIdentifier("alias"));
      stmt->aliases.push_back(std::move(alias));
    }
    if (stmt->aliases.empty()) {
      return Status::ParseError("CLOSE names no sessions at " +
                                cursor_->Peek().Where());
    }
    MSQL_RETURN_IF_ERROR(ExpectSemicolon());
    return DolStmtPtr(std::move(stmt));
  }

  Status ExpectSemicolon() {
    return cursor_->Expect(TokenType::kSemicolon);
  }

  TokenCursor* cursor_;
  /// Counts the levels kMaxDolNesting bounds.
  NestingBound nesting_;
};

}  // namespace

std::string RenderTokens(const std::vector<Token>& tokens) {
  std::string out;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (i > 0) {
      // SQL-ish joining: no whitespace around '.', none before ',', ';'
      // and ')', none after '('. (This keeps re-rendered bodies close
      // to the translator's ToSql style; exact equality is reached
      // after one round trip.)
      TokenType cur = tokens[i].type;
      TokenType prev = tokens[i - 1].type;
      bool tight_before = cur == TokenType::kComma ||
                          cur == TokenType::kSemicolon ||
                          cur == TokenType::kRParen ||
                          cur == TokenType::kDot;
      bool tight_after =
          prev == TokenType::kLParen || prev == TokenType::kDot;
      if (!tight_before && !tight_after) out += " ";
    }
    out += TokenText(tokens[i]);
  }
  return out;
}

Result<DolProgram> ParseDol(std::string_view text) {
  relational::LexerOptions options;
  options.braces = true;
  MSQL_ASSIGN_OR_RETURN(auto tokens, relational::Tokenize(text, options));
  TokenCursor cursor(std::move(tokens));
  return DolParser(&cursor).ParseProgram();
}

}  // namespace msql::dol
