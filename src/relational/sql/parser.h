#ifndef MSQL_RELATIONAL_SQL_PARSER_H_
#define MSQL_RELATIONAL_SQL_PARSER_H_

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "relational/sql/ast.h"
#include "relational/sql/token.h"

namespace msql::relational {

/// Cursor over a token vector, shared by the SQL, MSQL and DOL parsers.
class TokenCursor {
 public:
  explicit TokenCursor(std::vector<Token> tokens)
      : tokens_(std::move(tokens)) {}

  /// Token at current position + `offset` (clamped to the final kEof).
  const Token& Peek(size_t offset = 0) const {
    size_t i = pos_ + offset;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }

  /// Consumes and returns the current token.
  Token Get() {
    Token tok = Peek();
    if (pos_ < tokens_.size() - 1) ++pos_;
    return tok;
  }

  bool AtEnd() const { return Peek().type == TokenType::kEof; }

  /// Consumes the current token if it has the given type.
  bool Match(TokenType type) {
    if (Peek().type != type) return false;
    Get();
    return true;
  }

  /// Consumes the current token if it is the given keyword.
  bool MatchKeyword(std::string_view kw) {
    if (!Peek().IsKeyword(kw)) return false;
    Get();
    return true;
  }

  /// Requires and consumes a token of `type`; stores it in `out` if given.
  Status Expect(TokenType type, Token* out = nullptr);

  /// Requires and consumes the keyword `kw`.
  Status ExpectKeyword(std::string_view kw);

  /// Requires and consumes an identifier, returning its lower-cased text.
  Result<std::string> ExpectIdentifier(std::string_view what);

  /// Save/restore for speculative parsing.
  size_t position() const { return pos_; }
  void set_position(size_t pos) { pos_ = pos; }

 private:
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

/// Bounds how deep a recursive-descent parse nests, for the SQL and DOL
/// parsers. The bound tracks the nesting level of the parse in progress
/// and the deepest level reached in the current scope. A parser recurses
/// only where the level grows, and every tree node adds a level, so
/// bounding both bounds the parser's recursion and the height of the
/// tree it builds.
class NestingBound {
 public:
  /// `what` names the nesting in the error ("expression", "DOL"), which
  /// points at the cursor's current token.
  NestingBound(int limit, const char* what, const TokenCursor* cursor)
      : limit_(limit), what_(what), cursor_(cursor) {}

  /// Scope of one parse function. Inside it the peak starts again from
  /// the current level, so it measures only what the scope parses; on
  /// exit the level is restored and the peak becomes the larger of its
  /// old value and the deepest level reached inside.
  class Scope {
   public:
    explicit Scope(NestingBound* bound)
        : bound_(bound), depth_(bound->depth_), peak_(bound->peak_) {
      bound->peak_ = bound->depth_;
    }
    ~Scope() {
      bound_->depth_ = depth_;
      bound_->peak_ = std::max(peak_, bound_->peak_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    NestingBound* bound_;
    int depth_;
    int peak_;
  };

  /// Enters one more level before parsing what it encloses.
  Status Descend() {
    ++depth_;
    peak_ = std::max(peak_, depth_);
    return Check();
  }
  /// Counts a node built over the operands just parsed: its level is one
  /// above the deepest operand, so a chain of n operators is n levels
  /// deep, as its left-leaning tree is.
  Status Above() {
    ++peak_;
    return Check();
  }

 private:
  /// Fails once the peak passes the limit.
  Status Check() const { return peak_ <= limit_ ? Status::OK() : TooDeep(); }
  Status TooDeep() const;

  int limit_;
  const char* what_;
  const TokenCursor* cursor_;
  int depth_ = 0;
  int peak_ = 0;
};

/// Parser dialect switches.
struct ParseOptions {
  /// Accept MSQL extensions inside statement bodies: '~' optional-column
  /// designators and '%' multiple identifiers (the '%' acceptance is a
  /// lexer option; this flag gates '~').
  bool msql_extensions = false;
};

/// Recursive-descent parser for the SQL dialect of the local engines.
///
/// Supported: SELECT (DISTINCT, multi-table FROM with aliases, WHERE,
/// GROUP BY/HAVING, ORDER BY, aggregates, scalar subqueries, IN,
/// BETWEEN, LIKE, IS [NOT] NULL), INSERT (VALUES and SELECT source),
/// UPDATE, DELETE, CREATE/DROP TABLE, VIEW and INDEX, and the
/// transaction-control verbs BEGIN / COMMIT / ROLLBACK / PREPARE. There
/// is no database-level statement: a database is created by the
/// engine's owner (LocalEngine::CreateDatabase), never by SQL.
class SqlParser {
 public:
  /// Deepest expression nesting accepted. The parser and every walk over
  /// an expression tree (ForEachChild users, ToSql, Clone, evaluation,
  /// destruction) recurse once per level, so this bound is what keeps
  /// hostile input from overflowing the stack. The deepest accepted
  /// inputs run end to end within half of an 8 MB stack even under the
  /// ASan/UBSan build, whose frames are the largest.
  static constexpr int kMaxExpressionDepth = 256;

  SqlParser(TokenCursor* cursor, ParseOptions options)
      : cursor_(cursor),
        options_(options),
        nesting_(kMaxExpressionDepth, "expression", cursor) {}

  /// Parses a single statement (without trailing ';').
  Result<StatementPtr> ParseStatement();

  /// Parses a SELECT statement (entry point also used by subqueries and
  /// the MSQL parser).
  Result<std::unique_ptr<SelectStmt>> ParseSelect();
  Result<std::unique_ptr<InsertStmt>> ParseInsert();
  Result<std::unique_ptr<UpdateStmt>> ParseUpdate();
  Result<std::unique_ptr<DeleteStmt>> ParseDelete();

  /// Parses an expression (entry point also used by the MSQL parser).
  Result<ExprPtr> ParseExpression();

  /// Parses `[db.]table [alias]`.
  Result<TableRef> ParseTableRef();

  /// True if `word` is reserved in this dialect (never an alias).
  static bool IsReservedWord(std::string_view word);

 private:
  Result<StatementPtr> ParseCreate();
  Result<StatementPtr> ParseDrop();
  Result<std::unique_ptr<CreateTableStmt>> ParseCreateTableBody();
  Result<SelectItem> ParseSelectItem();
  Result<ExprPtr> ParseOr();
  Result<ExprPtr> ParseAnd();
  Result<ExprPtr> ParseNot();
  Result<ExprPtr> ParseComparison();
  Result<ExprPtr> ParseAdditive();
  Result<ExprPtr> ParseMultiplicative();
  Result<ExprPtr> ParseUnary();
  Result<ExprPtr> ParsePrimary();
  Result<ExprPtr> ParseColumnOrFunction();
  /// Parses `SELECT ...)` after its opening parenthesis.
  Result<ExprPtr> ParseSubquery();

  TokenCursor* cursor_;
  ParseOptions options_;
  /// Each nested expression (in parentheses, an argument or IN list, a
  /// subquery clause), scalar subquery, or operand of a NOT or sign
  /// prefix descends one level; each binary operator or comparison, IN,
  /// BETWEEN, LIKE and IS NULL counts one level above its operands.
  NestingBound nesting_;
};

/// Parses exactly one SQL statement from `text` (optional trailing ';').
Result<StatementPtr> ParseSql(std::string_view text,
                              const ParseOptions& options = {});

/// Parses a ';'-separated script.
Result<std::vector<StatementPtr>> ParseSqlScript(
    std::string_view text, const ParseOptions& options = {});

}  // namespace msql::relational

#endif  // MSQL_RELATIONAL_SQL_PARSER_H_
