// Lexer and SQL parser, including the MSQL extensions ('%', '~').
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/fixtures.h"
#include "core/mdbs_system.h"
#include "relational/sql/lexer.h"
#include "relational/sql/parser.h"

namespace msql::relational {
namespace {

TEST(LexerTest, BasicTokens) {
  auto tokens = Tokenize("SELECT a, 42 FROM t WHERE b >= 3.5");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 11u);  // 10 tokens + EOF
  EXPECT_EQ((*tokens)[0].type, TokenType::kIdentifier);
  EXPECT_EQ((*tokens)[3].type, TokenType::kInteger);
  EXPECT_EQ((*tokens)[3].int_value, 42);
  EXPECT_EQ((*tokens)[8].type, TokenType::kGe);
  EXPECT_EQ((*tokens)[9].type, TokenType::kReal);
  EXPECT_DOUBLE_EQ((*tokens)[9].real_value, 3.5);
  EXPECT_EQ(tokens->back().type, TokenType::kEof);
}

TEST(LexerTest, StringEscapesAndComments) {
  auto tokens = Tokenize("-- comment line\n'o''hare' <> '' ");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kString);
  EXPECT_EQ((*tokens)[0].text, "o'hare");
  EXPECT_EQ((*tokens)[1].type, TokenType::kNe);
  EXPECT_EQ((*tokens)[2].text, "");
}

TEST(LexerTest, PercentRequiresMsqlMode) {
  EXPECT_FALSE(Tokenize("SELECT %code").ok());
  LexerOptions msql;
  msql.percent_in_identifiers = true;
  auto tokens = Tokenize("SELECT %code, flight%", msql);
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[1].text, "%code");
  EXPECT_EQ((*tokens)[3].text, "flight%");
}

TEST(LexerTest, BracesRequireDolMode) {
  EXPECT_FALSE(Tokenize("{ x }").ok());
  LexerOptions dol;
  dol.braces = true;
  auto tokens = Tokenize("{ x }", dol);
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kLBrace);
  EXPECT_EQ((*tokens)[2].type, TokenType::kRBrace);
}

TEST(LexerTest, ErrorsCarryPosition) {
  auto tokens = Tokenize("a\n  @");
  ASSERT_FALSE(tokens.ok());
  EXPECT_NE(tokens.status().message().find("line 2"), std::string::npos);
}

TEST(LexerTest, UnterminatedString) {
  EXPECT_FALSE(Tokenize("'abc").ok());
}

// --- parser ---------------------------------------------------------------

Result<StatementPtr> Parse(std::string_view sql) { return ParseSql(sql); }

TEST(LexerTest, RealLiteralsBeyondTheDoubleRangeAreParseErrors) {
  // Too large for any double, or too small for even a subnormal: a
  // parse error at the literal, for the local parser and through the
  // federation's MSQL front end alike.
  auto sys = core::BuildPaperFederation();
  ASSERT_TRUE(sys.ok()) << sys.status();
  for (const char* literal : {"1e999", "1e-999"}) {
    const std::string body =
        std::string("SELECT code FROM cars WHERE rate < ") + literal;
    SCOPED_TRACE(body);
    auto parsed = ParseSql(body);
    EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
    EXPECT_EQ(parsed.status().message(),
              "real literal out of range at line 1 col 36");
    auto report = (*sys)->Execute("USE avis " + body);
    EXPECT_EQ(report.status().code(), StatusCode::kParseError);
  }
  EXPECT_EQ(ParseSql("SELECT a FROM t WHERE a = 9223372036854775808")
                .status()
                .message(),
            "integer literal out of range at line 1 col 27");
}

TEST(LexerTest, ShippedRealLiteralsReadBackBitForBit) {
  // Doubles at the edges of the finite range, subnormals and -0.0
  // included, render as literals that lex back to the same bits.
  for (double v : {5e-324, 6.6e-319, DBL_MIN, DBL_MAX, -0.0}) {
    const std::string literal = Value::Real(v).ToSqlLiteral();
    SCOPED_TRACE(literal);
    auto parsed = ParseSql("SELECT a FROM t WHERE a = " + literal);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    const auto& where = *static_cast<const SelectStmt&>(**parsed).where;
    const Expr& right = static_cast<const BinaryExpr&>(where).right();
    ASSERT_EQ(right.kind(), ExprKind::kLiteral);
    const Value& back = static_cast<const LiteralExpr&>(right).value();
    ASSERT_TRUE(back.is_real());
    EXPECT_EQ(std::bit_cast<uint64_t>(back.AsReal()),
              std::bit_cast<uint64_t>(v));
  }
}

TEST(ParserTest, SelectFull) {
  auto stmt = Parse(
      "SELECT DISTINCT a, b AS bee, t.c FROM t1 t, t2 "
      "WHERE a = 1 AND b <> 'x' GROUP BY a HAVING COUNT(*) > 1 "
      "ORDER BY a DESC, b");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  const auto& sel = static_cast<const SelectStmt&>(**stmt);
  EXPECT_TRUE(sel.distinct);
  ASSERT_EQ(sel.items.size(), 3u);
  EXPECT_EQ(sel.items[1].alias, "bee");
  ASSERT_EQ(sel.from.size(), 2u);
  EXPECT_EQ(sel.from[0].alias, "t");
  ASSERT_NE(sel.where, nullptr);
  ASSERT_EQ(sel.group_by.size(), 1u);
  ASSERT_NE(sel.having, nullptr);
  ASSERT_EQ(sel.order_by.size(), 2u);
  EXPECT_TRUE(sel.order_by[0].descending);
  EXPECT_FALSE(sel.order_by[1].descending);
}

TEST(ParserTest, SelectStarForms) {
  auto stmt = Parse("SELECT *, t.* FROM t");
  ASSERT_TRUE(stmt.ok());
  const auto& sel = static_cast<const SelectStmt&>(**stmt);
  EXPECT_TRUE(sel.items[0].is_star);
  EXPECT_EQ(sel.items[0].star_qualifier, "");
  EXPECT_TRUE(sel.items[1].is_star);
  EXPECT_EQ(sel.items[1].star_qualifier, "t");
}

TEST(ParserTest, ExpressionPrecedence) {
  auto stmt = Parse("SELECT a FROM t WHERE a + 2 * 3 = 7 OR NOT b < 1");
  ASSERT_TRUE(stmt.ok());
  // Precedence-aware rendering needs no parentheses here.
  std::string sql = (*stmt)->ToSql();
  EXPECT_NE(sql.find("a + 2 * 3 = 7"), std::string::npos) << sql;
  // But a reassociated tree keeps them.
  auto forced = Parse("SELECT a FROM t WHERE (a + 2) * 3 = 9");
  ASSERT_TRUE(forced.ok());
  EXPECT_NE((*forced)->ToSql().find("(a + 2) * 3 = 9"), std::string::npos);
}

TEST(ParserTest, ScalarSubqueryAndIn) {
  auto stmt = Parse(
      "SELECT a FROM t WHERE a = (SELECT MIN(a) FROM t) "
      "AND b IN (1, 2, 3) AND c NOT IN (SELECT c FROM u)");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  std::string sql = (*stmt)->ToSql();
  EXPECT_NE(sql.find("(SELECT MIN(a) FROM t)"), std::string::npos);
  EXPECT_NE(sql.find("NOT IN"), std::string::npos);
}

TEST(ParserTest, BetweenLikeIsNull) {
  auto stmt = Parse(
      "SELECT a FROM t WHERE a BETWEEN 1 AND 5 AND b LIKE 'x%' "
      "AND c IS NOT NULL AND d IS NULL AND e NOT BETWEEN 2 AND 3");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  std::string sql = (*stmt)->ToSql();
  EXPECT_NE(sql.find("BETWEEN 1 AND 5"), std::string::npos);
  EXPECT_NE(sql.find("IS NOT NULL"), std::string::npos);
  EXPECT_NE(sql.find("NOT BETWEEN"), std::string::npos);
}

TEST(ParserTest, InsertForms) {
  auto values = Parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')");
  ASSERT_TRUE(values.ok());
  const auto& ins = static_cast<const InsertStmt&>(**values);
  EXPECT_EQ(ins.columns, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(ins.values_rows.size(), 2u);

  auto select_src = Parse("INSERT INTO t SELECT a FROM u");
  ASSERT_TRUE(select_src.ok());
  const auto& ins2 = static_cast<const InsertStmt&>(**select_src);
  EXPECT_NE(ins2.select_source, nullptr);
}

TEST(ParserTest, UpdateAndDelete) {
  auto upd = Parse("UPDATE t SET a = a + 1, b = 'z' WHERE c = 0");
  ASSERT_TRUE(upd.ok());
  const auto& u = static_cast<const UpdateStmt&>(**upd);
  EXPECT_EQ(u.assignments.size(), 2u);
  ASSERT_NE(u.where, nullptr);

  auto del = Parse("DELETE FROM t WHERE a IS NULL");
  ASSERT_TRUE(del.ok());
  EXPECT_EQ((*del)->kind(), StatementKind::kDelete);
}

TEST(ParserTest, DdlAndTxnControl) {
  auto create = Parse("CREATE TABLE t (a INTEGER, b VARCHAR(20))");
  ASSERT_TRUE(create.ok());
  const auto& c = static_cast<const CreateTableStmt&>(**create);
  EXPECT_EQ(c.columns[1].width, 20);

  EXPECT_EQ((*Parse("DROP TABLE t"))->kind(), StatementKind::kDropTable);
  EXPECT_EQ(Parse("CREATE DATABASE d").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ((*Parse("BEGIN"))->kind(), StatementKind::kBegin);
  EXPECT_EQ((*Parse("BEGIN TRANSACTION"))->kind(), StatementKind::kBegin);
  EXPECT_EQ((*Parse("COMMIT"))->kind(), StatementKind::kCommit);
  EXPECT_EQ((*Parse("ROLLBACK"))->kind(), StatementKind::kRollback);
  EXPECT_EQ((*Parse("PREPARE"))->kind(), StatementKind::kPrepare);
}

// The dialect has no database-level statement; the errors name what
// CREATE and DROP do take.
TEST(ParserTest, NoDatabaseStatements) {
  auto create = Parse("CREATE DATABASE d");
  EXPECT_EQ(create.status().code(), StatusCode::kParseError);
  EXPECT_EQ(create.status().message(),
            "expected TABLE, VIEW or INDEX after CREATE at line 1 col 8");
  auto drop = Parse("DROP DATABASE d");
  EXPECT_EQ(drop.status().code(), StatusCode::kParseError);
  EXPECT_EQ(drop.status().message(),
            "expected TABLE, VIEW or INDEX after DROP at line 1 col 6");
  // "database" stays reserved: it is no column name.
  EXPECT_EQ(Parse("SELECT database FROM t").status().code(),
            StatusCode::kParseError);
}

TEST(ParserTest, DbQualifiedTableNames) {
  auto stmt = Parse("SELECT a FROM avis.cars");
  ASSERT_TRUE(stmt.ok());
  const auto& sel = static_cast<const SelectStmt&>(**stmt);
  EXPECT_EQ(sel.from[0].database, "avis");
  EXPECT_EQ(sel.from[0].table, "cars");
}

TEST(ParserTest, TildeNeedsMsqlMode) {
  EXPECT_FALSE(Parse("SELECT ~rate FROM cars").ok());
  ParseOptions msql;
  msql.msql_extensions = true;
  auto stmt = ParseSql("SELECT ~rate FROM cars", msql);
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  const auto& sel = static_cast<const SelectStmt&>(**stmt);
  const auto& ref = static_cast<const ColumnRefExpr&>(*sel.items[0].expr);
  EXPECT_TRUE(ref.optional_column());
}

TEST(ParserTest, ErrorsAreParseErrors) {
  EXPECT_EQ(Parse("SELEC a FROM t").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(Parse("SELECT FROM t").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(Parse("SELECT a FROM t extra garbage ,").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(Parse("UPDATE t SET").status().code(), StatusCode::kParseError);
}

std::string Repeat(std::string_view unit, int times) {
  std::string out;
  out.reserve(unit.size() * static_cast<size_t>(times));
  for (int i = 0; i < times; ++i) out += unit;
  return out;
}

TEST(ParserTest, NestingDepthIsBounded) {
  // Each hostile body ends in a parse error naming the limit, both for
  // the local parser and through the federation's Execute, instead of
  // overflowing the stack of the parser or of a later tree walk.
  const std::string where = "SELECT code FROM cars WHERE ";
  const std::vector<std::string> too_deep = {
      where + Repeat("(", 5000) + "1=1" + Repeat(")", 5000),
      where + Repeat("NOT ", 20000) + "1=1",
      where + "1=1" + Repeat(" OR 1=1", 99999),
      where + "code = " + Repeat("- ", 100000) + "1",
      Repeat("SELECT code FROM cars WHERE code = (", 1000) +
          "SELECT code FROM cars" + Repeat(")", 1000),
  };
  const std::string limit =
      "limit of " + std::to_string(SqlParser::kMaxExpressionDepth) +
      " levels";
  auto sys = core::BuildPaperFederation();
  ASSERT_TRUE(sys.ok()) << sys.status();
  for (const auto& body : too_deep) {
    SCOPED_TRACE(body.substr(0, 60));
    auto parsed = ParseSql(body);
    EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
    EXPECT_NE(parsed.status().message().find(limit), std::string::npos)
        << parsed.status();
    auto report = (*sys)->Execute("USE avis " + body);
    EXPECT_EQ(report.status().code(), StatusCode::kParseError);
  }

  // At the limit: the WHERE clause is one level, each `1=1` a second and
  // each OR one more above the chain so far. That chain parses and runs
  // end to end; one more operator is too deep.
  const std::string at_limit =
      where + "1=1" + Repeat(" OR 1=1", SqlParser::kMaxExpressionDepth - 2);
  ASSERT_TRUE(ParseSql(at_limit).ok());
  auto report = (*sys)->Execute("USE avis " + at_limit);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->outcome, core::GlobalOutcome::kSuccess);
  EXPECT_EQ(ParseSql(at_limit + " OR 1=1").status().code(),
            StatusCode::kParseError);
}

TEST(ParserTest, PrefixChainsRenderAsDeepAsWritten) {
  // A NOT of a NOT, or a minus of a minus, renders without parentheses,
  // so the query a LAM re-parses is no deeper than the one the front end
  // accepted: chains near the depth limit still run end to end.
  auto sys = core::BuildPaperFederation();
  ASSERT_TRUE(sys.ok()) << sys.status();
  auto codes = [&](const std::string& where) -> std::vector<Row> {
    auto report =
        (*sys)->Execute("USE avis SELECT code FROM cars WHERE " + where);
    EXPECT_TRUE(report.ok()) << report.status();
    if (!report.ok()) return {};
    EXPECT_EQ(report->outcome, core::GlobalOutcome::kSuccess)
        << report->detail;
    const auto* avis = report->multitable.Find("avis");
    EXPECT_NE(avis, nullptr) << "no avis result";
    return avis != nullptr ? avis->table.rows : std::vector<Row>{};
  };
  const std::vector<Row> one = codes("code = 1");
  const std::vector<Row> not_one = codes("NOT code = 1");
  ASSERT_EQ(one.size(), 1u);
  ASSERT_FALSE(not_one.empty());
  const std::pair<std::string, const std::vector<Row>*> chains[] = {
      {Repeat("NOT ", 128) + "code = 1", &one},
      {Repeat("NOT ", 251) + "code = 1", &not_one},
      {Repeat("- ", 250) + "code = 1", &one},
      {Repeat("- ", 249) + "code = -1", &one},
  };
  for (const auto& [where, expected] : chains) {
    SCOPED_TRACE(where.substr(0, 12) + "... (" +
                 std::to_string(where.size()) + " chars)");
    auto first = ParseSql("SELECT code FROM cars WHERE " + where);
    ASSERT_TRUE(first.ok()) << first.status();
    const std::string rendered = (*first)->ToSql();
    auto second = ParseSql(rendered);
    ASSERT_TRUE(second.ok()) << second.status();
    EXPECT_EQ((*second)->ToSql(), rendered);
    EXPECT_EQ(codes(where), *expected);
  }
}

TEST(ParserTest, ScriptSplitsOnSemicolons) {
  auto script = ParseSqlScript("SELECT a FROM t; DELETE FROM t;;");
  ASSERT_TRUE(script.ok());
  EXPECT_EQ(script->size(), 2u);
}

/// Property: rendering a parsed statement and re-parsing it must reach a
/// fixpoint (ToSql ∘ Parse is idempotent).
class RoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTripTest, ToSqlParseFixpoint) {
  auto first = Parse(GetParam());
  ASSERT_TRUE(first.ok()) << first.status();
  std::string rendered = (*first)->ToSql();
  auto second = Parse(rendered);
  ASSERT_TRUE(second.ok()) << rendered << " -> " << second.status();
  EXPECT_EQ((*second)->ToSql(), rendered);
}

INSTANTIATE_TEST_SUITE_P(
    Statements, RoundTripTest,
    ::testing::Values(
        "SELECT a, b AS c FROM t WHERE a = 1 ORDER BY a DESC",
        "SELECT DISTINCT t.a FROM t1 t, t2 WHERE t.a = t2.b",
        "SELECT COUNT(*), MIN(a), AVG(b) FROM t GROUP BY c HAVING "
        "COUNT(*) > 2",
        "SELECT a FROM t WHERE a = (SELECT MAX(a) FROM t) AND b LIKE 'x%'",
        "SELECT a FROM t WHERE a IN (1, 2) AND b NOT BETWEEN 1 AND 9",
        "INSERT INTO t (a, b) VALUES (1, 'x''y'), (NULL, 'z')",
        "UPDATE t SET a = a * 1.1 WHERE b = 'Houston' AND c IS NULL",
        "DELETE FROM t WHERE NOT (a = 1 OR b = 2)",
        "CREATE TABLE t (a INTEGER, b TEXT(12), c REAL)",
        "DROP TABLE t"));

}  // namespace
}  // namespace msql::relational
