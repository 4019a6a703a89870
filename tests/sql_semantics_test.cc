// Deep SQL-semantics coverage of the local engines: three-valued logic
// corner cases, aggregate/NULL interactions, ordering, grouping and
// expression evaluation sweeps. These pin down behaviours the
// multidatabase layer silently depends on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>

#include "relational/engine.h"

namespace msql::relational {
namespace {

class SqlSemanticsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<LocalEngine>(
        "svc", CapabilityProfile::IngresLike());
    ASSERT_TRUE(engine_->CreateDatabase("db").ok());
    session_ = *engine_->OpenSession("db");
    Exec("CREATE TABLE t (i INTEGER, r REAL, s TEXT)");
    Exec("INSERT INTO t VALUES (1, 1.5, 'a'), (2, NULL, 'b'), "
         "(NULL, 2.5, 'c'), (4, 4.5, NULL), (5, 5.5, 'a')");
  }

  ResultSet Exec(std::string_view sql) {
    auto result = engine_->Execute(session_, sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status();
    return result.ok() ? std::move(*result) : ResultSet{};
  }

  int64_t CountWhere(const std::string& predicate) {
    return Exec("SELECT COUNT(*) FROM t WHERE " + predicate)
        .rows[0][0]
        .AsInteger();
  }

  std::unique_ptr<LocalEngine> engine_;
  SessionId session_ = 0;
};

// --- three-valued logic -----------------------------------------------------

TEST_F(SqlSemanticsTest, ComparisonWithNullIsUnknown) {
  EXPECT_EQ(CountWhere("i = NULL"), 0);
  EXPECT_EQ(CountWhere("i <> NULL"), 0);
  EXPECT_EQ(CountWhere("NULL = NULL"), 0);
  EXPECT_EQ(CountWhere("i IS NULL"), 1);
  EXPECT_EQ(CountWhere("i IS NOT NULL"), 4);
}

TEST_F(SqlSemanticsTest, NotOfUnknownIsUnknown) {
  // i > 3 is UNKNOWN for the NULL row; NOT keeps it UNKNOWN, so the
  // two complementary predicates never cover the NULL row.
  EXPECT_EQ(CountWhere("i > 3"), 2);
  EXPECT_EQ(CountWhere("NOT i > 3"), 2);
  EXPECT_EQ(CountWhere("i > 3 OR NOT i > 3"), 4);  // NULL row excluded
}

TEST_F(SqlSemanticsTest, AndOrShortCircuitSemantics) {
  // FALSE AND UNKNOWN = FALSE (not UNKNOWN), TRUE OR UNKNOWN = TRUE.
  EXPECT_EQ(CountWhere("i < 0 AND r > 0"), 0);
  EXPECT_EQ(CountWhere("i >= 1 OR r > 99"), 4);  // NULL-i row: r>99 false
  // UNKNOWN AND TRUE = UNKNOWN → filtered.
  EXPECT_EQ(CountWhere("r > 0 AND i >= 0"), 3);  // row 2 has NULL r
}

TEST_F(SqlSemanticsTest, InListWithNulls) {
  // 2 IN (...) with NULL member: TRUE if found, else UNKNOWN.
  EXPECT_EQ(CountWhere("i IN (1, NULL, 5)"), 2);
  EXPECT_EQ(CountWhere("i NOT IN (1, NULL, 5)"), 0);  // UNKNOWN everywhere
  EXPECT_EQ(CountWhere("i NOT IN (1, 5)"), 2);        // 2 and 4
}

TEST_F(SqlSemanticsTest, BetweenBounds) {
  EXPECT_EQ(CountWhere("i BETWEEN 2 AND 4"), 2);  // inclusive both ends
  EXPECT_EQ(CountWhere("i NOT BETWEEN 2 AND 4"), 2);
  EXPECT_EQ(CountWhere("s BETWEEN 'a' AND 'b'"), 3);  // text ranges
  EXPECT_EQ(CountWhere("r BETWEEN NULL AND 5"), 0);
}

TEST_F(SqlSemanticsTest, LikeIsCaseSensitiveWithUnderscore) {
  Exec("INSERT INTO t VALUES (9, 0.0, 'Abc')");
  EXPECT_EQ(CountWhere("s LIKE 'A%'"), 1);
  EXPECT_EQ(CountWhere("s LIKE 'a%'"), 2);
  EXPECT_EQ(CountWhere("s LIKE '_bc'"), 1);
  EXPECT_EQ(CountWhere("s LIKE '%'"), 5);  // NULL s stays out
  EXPECT_EQ(CountWhere("s NOT LIKE 'a'"), 3);
}

// --- aggregates & grouping ---------------------------------------------------

TEST_F(SqlSemanticsTest, AggregatesSkipNullsCountStarDoesNot) {
  ResultSet rs = Exec(
      "SELECT COUNT(*), COUNT(i), COUNT(r), COUNT(s), AVG(i) FROM t");
  EXPECT_EQ(rs.rows[0][0], Value::Integer(5));
  EXPECT_EQ(rs.rows[0][1], Value::Integer(4));
  EXPECT_EQ(rs.rows[0][2], Value::Integer(4));
  EXPECT_EQ(rs.rows[0][3], Value::Integer(4));
  EXPECT_NEAR(rs.rows[0][4].AsReal(), (1 + 2 + 4 + 5) / 4.0, 1e-9);
}

TEST_F(SqlSemanticsTest, AggregatesOverAllNullColumn) {
  Exec("CREATE TABLE n (x INTEGER)");
  Exec("INSERT INTO n VALUES (NULL), (NULL), (NULL)");
  ResultSet rs = Exec(
      "SELECT COUNT(*), COUNT(x), SUM(x), AVG(x), MIN(x), MAX(x) FROM n");
  EXPECT_EQ(rs.rows[0][0], Value::Integer(3));  // COUNT(*) counts NULL rows
  EXPECT_EQ(rs.rows[0][1], Value::Integer(0));  // COUNT(x) skips them all
  EXPECT_TRUE(rs.rows[0][2].is_null());
  EXPECT_TRUE(rs.rows[0][3].is_null());  // all-NULL AVG is NULL, not 0/0
  EXPECT_TRUE(rs.rows[0][4].is_null());
  EXPECT_TRUE(rs.rows[0][5].is_null());
}

TEST_F(SqlSemanticsTest, AggregatesOverEmptyInput) {
  // The global group exists even over zero rows: COUNTs are 0, every
  // other aggregate is NULL.
  ResultSet rs = Exec(
      "SELECT COUNT(*), COUNT(i), SUM(i), AVG(i), MAX(i) FROM t "
      "WHERE i = 99");
  EXPECT_EQ(rs.rows[0][0], Value::Integer(0));
  EXPECT_EQ(rs.rows[0][1], Value::Integer(0));
  EXPECT_TRUE(rs.rows[0][2].is_null());
  EXPECT_TRUE(rs.rows[0][3].is_null());
  EXPECT_TRUE(rs.rows[0][4].is_null());
}

TEST_F(SqlSemanticsTest, SumTypePreservation) {
  ResultSet rs = Exec("SELECT SUM(i), SUM(r) FROM t");
  EXPECT_TRUE(rs.rows[0][0].is_integer());  // all-integer input
  EXPECT_TRUE(rs.rows[0][1].is_real());
}

TEST_F(SqlSemanticsTest, GroupByNullFormsItsOwnGroup) {
  ResultSet rs = Exec(
      "SELECT s, COUNT(*) FROM t GROUP BY s ORDER BY s");
  // Groups: NULL, 'a' (×2), 'b', 'c' — NULL sorts first.
  ASSERT_EQ(rs.rows.size(), 4u);
  EXPECT_TRUE(rs.rows[0][0].is_null());
  EXPECT_EQ(rs.rows[0][1], Value::Integer(1));
  EXPECT_EQ(rs.rows[1][0], Value::Text("a"));
  EXPECT_EQ(rs.rows[1][1], Value::Integer(2));
}

TEST_F(SqlSemanticsTest, GroupByMultipleKeysAndHavingOnAggregate) {
  Exec("INSERT INTO t VALUES (1, 9.0, 'a')");
  ResultSet rs = Exec(
      "SELECT i, s, COUNT(*) AS n FROM t GROUP BY i, s "
      "HAVING COUNT(*) > 1");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value::Integer(1));
  EXPECT_EQ(rs.rows[0][1], Value::Text("a"));
  EXPECT_EQ(rs.rows[0][2], Value::Integer(2));
}

TEST_F(SqlSemanticsTest, AggregateInsideExpression) {
  ResultSet rs = Exec("SELECT MAX(i) - MIN(i), SUM(i) / COUNT(i) FROM t");
  EXPECT_EQ(rs.rows[0][0], Value::Integer(4));
  EXPECT_EQ(rs.rows[0][1], Value::Integer(3));  // integer division
}

// --- ordering -----------------------------------------------------------------

TEST_F(SqlSemanticsTest, OrderByNullsFirstThenValues) {
  ResultSet rs = Exec("SELECT i FROM t ORDER BY i");
  ASSERT_EQ(rs.rows.size(), 5u);
  EXPECT_TRUE(rs.rows[0][0].is_null());
  EXPECT_EQ(rs.rows[1][0], Value::Integer(1));
  EXPECT_EQ(rs.rows[4][0], Value::Integer(5));
}

TEST_F(SqlSemanticsTest, OrderByMixedDirectionsIsStable) {
  ResultSet rs = Exec("SELECT s, i FROM t ORDER BY s DESC, i ASC");
  // s: c, b, a, a, NULL; within 'a': i 1 then 5.
  ASSERT_EQ(rs.rows.size(), 5u);
  EXPECT_EQ(rs.rows[0][0], Value::Text("c"));
  EXPECT_EQ(rs.rows[2][0], Value::Text("a"));
  EXPECT_EQ(rs.rows[2][1], Value::Integer(1));
  EXPECT_EQ(rs.rows[3][1], Value::Integer(5));
  EXPECT_TRUE(rs.rows[4][0].is_null());
}

TEST_F(SqlSemanticsTest, OrderByOutputAliasAndExpression) {
  ResultSet by_alias = Exec(
      "SELECT i * 2 AS dbl FROM t WHERE i IS NOT NULL ORDER BY dbl DESC");
  EXPECT_EQ(by_alias.rows[0][0], Value::Integer(10));
  ResultSet by_expr = Exec(
      "SELECT i FROM t WHERE i IS NOT NULL ORDER BY 0 - i");
  EXPECT_EQ(by_expr.rows[0][0], Value::Integer(5));
}

TEST_F(SqlSemanticsTest, DistinctTreatsNullsAsEqual) {
  Exec("INSERT INTO t (i, r, s) VALUES (7, NULL, 'a')");
  ResultSet rs = Exec("SELECT DISTINCT r FROM t WHERE s = 'a' OR i = 2");
  // r values over those rows: 1.5, 5.5, NULL (x2 collapsed).
  EXPECT_EQ(rs.rows.size(), 3u);
}

// --- expression evaluation -----------------------------------------------------

TEST_F(SqlSemanticsTest, ArithmeticTypeRules) {
  ResultSet rs = Exec(
      "SELECT 7 / 2, 7.0 / 2, 7 * 2, 7.5 - 0.5, -i FROM t WHERE i = 1");
  EXPECT_EQ(rs.rows[0][0], Value::Integer(3));  // integer division
  EXPECT_EQ(rs.rows[0][1], Value::Real(3.5));
  EXPECT_EQ(rs.rows[0][2], Value::Integer(14));
  EXPECT_EQ(rs.rows[0][3], Value::Real(7.0));
  EXPECT_EQ(rs.rows[0][4], Value::Integer(-1));
}

TEST_F(SqlSemanticsTest, NullPropagationThroughArithmetic) {
  ResultSet rs = Exec("SELECT r + 1, r * 0 FROM t WHERE i = 2");
  EXPECT_TRUE(rs.rows[0][0].is_null());
  EXPECT_TRUE(rs.rows[0][1].is_null());  // NULL * 0 is NULL, not 0
}

TEST_F(SqlSemanticsTest, CrossTypeComparisonErrorsInsteadOfCoercing) {
  auto bad = engine_->Execute(session_, "SELECT i FROM t WHERE i = 'x'");
  EXPECT_FALSE(bad.ok());
  auto bad2 = engine_->Execute(session_, "SELECT i FROM t WHERE s > 1");
  EXPECT_FALSE(bad2.ok());
  // But INTEGER vs REAL compares numerically.
  EXPECT_EQ(CountWhere("i = 1.0"), 1);
}

// --- INTEGER range and the numeric order ----------------------------------------

/// The Status of `sql`, which must fail.
Status FailureOf(LocalEngine* engine, SessionId session,
                 std::string_view sql) {
  auto result = engine->Execute(session, sql);
  EXPECT_FALSE(result.ok()) << sql << " succeeded";
  return result.ok() ? Status::OK() : result.status();
}

TEST_F(SqlSemanticsTest, IntegerOverflowIsAnError) {
  // The largest and smallest INTEGERs themselves are fine.
  ResultSet edges = Exec(
      "SELECT 9223372036854775807, -9223372036854775807 - 1, "
      "(-9223372036854775807 - 1) / 1, 4611686018427387904 * -2 "
      "FROM t WHERE i = 1");
  EXPECT_EQ(edges.rows[0][0], Value::Integer(INT64_MAX));
  EXPECT_EQ(edges.rows[0][1], Value::Integer(INT64_MIN));
  EXPECT_EQ(edges.rows[0][2], Value::Integer(INT64_MIN));
  EXPECT_EQ(edges.rows[0][3], Value::Integer(INT64_MIN));
  for (const char* expr :
       {"9223372036854775807 + 1", "-9223372036854775807 - 2",
        "4611686018427387904 * 2", "(-9223372036854775807 - 1) / -1",
        "-(-9223372036854775807 - 1)", "ABS(-9223372036854775807 - 1)",
        "0 - (-9223372036854775807 - 1)", "3037000500 * 3037000500"}) {
    SCOPED_TRACE(expr);
    Status st = FailureOf(engine_.get(), session_,
                          "SELECT " + std::string(expr) + " FROM t");
    EXPECT_EQ(st.code(), StatusCode::kExecutionError);
    EXPECT_EQ(st.message(), "integer overflow");
  }
  // In a WHERE the sum no longer wraps to a negative that matches.
  Status where = FailureOf(engine_.get(), session_,
                           "SELECT i FROM t WHERE i = 1 AND "
                           "9223372036854775807 + 1 < 0");
  EXPECT_EQ(where.code(), StatusCode::kExecutionError);
}

TEST_F(SqlSemanticsTest, MinimumIntegerDividedByMinusOneIsAnError) {
  // The quotient of INT64_MIN / -1 trapped (SIGFPE) instead of failing.
  Exec("UPDATE t SET i = -9223372036854775807 - 1 WHERE i = 1");
  Status st = FailureOf(engine_.get(), session_,
                        "SELECT i FROM t WHERE i = (SELECT MIN(i) FROM t) "
                        "/ -1");
  EXPECT_EQ(st.code(), StatusCode::kExecutionError);
  EXPECT_EQ(st.message(), "integer overflow");
  EXPECT_EQ(CountWhere("i = -9223372036854775807 - 1"), 1);
}

TEST_F(SqlSemanticsTest, IntegerSumOverflowIsAnError) {
  Exec("CREATE TABLE big (n INTEGER)");
  Exec("INSERT INTO big VALUES (9223372036854775807), (1)");
  Status st = FailureOf(engine_.get(), session_, "SELECT SUM(n) FROM big");
  EXPECT_EQ(st.code(), StatusCode::kExecutionError);
  EXPECT_EQ(st.message(), "integer overflow");
  // Only the exact total must fit: a partial sum may leave the range.
  Exec("INSERT INTO big VALUES (-1)");
  ResultSet total = Exec("SELECT SUM(n) FROM big");
  EXPECT_EQ(total.rows[0][0], Value::Integer(INT64_MAX));
  // A REAL in the group makes the sum REAL, which does not overflow.
  Exec("INSERT INTO big VALUES (1.0)");
  ResultSet mixed = Exec("SELECT SUM(n + 0.0) FROM big");
  EXPECT_TRUE(mixed.rows[0][0].is_real());
}

TEST_F(SqlSemanticsTest, OutOfRangeRealIsNotStoredAsInteger) {
  for (const char* real : {"1e19", "-1e19", "9223372036854775808.0",
                           "1e300 * 1e300"}) {
    SCOPED_TRACE(real);
    Status st = FailureOf(engine_.get(), session_,
                          "UPDATE t SET i = " + std::string(real) +
                              " WHERE i = 2");
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(CountWhere("i = 2"), 1);  // the row is as it was
  }
  // -2^63 is exactly INT64_MIN, and fits.
  Exec("UPDATE t SET i = -9223372036854775808.0 WHERE i = 2");
  EXPECT_EQ(CountWhere("i = -9223372036854775807 - 1"), 1);
}

TEST_F(SqlSemanticsTest, IntegersCompareExactlyPastTwoToThe53) {
  // 2^53 + 1 and 2^53 share a double; as INTEGERs they differ.
  EXPECT_EQ(CountWhere("9007199254740993 > 9007199254740992"), 5);
  EXPECT_EQ(CountWhere("9007199254740993 = 9007199254740992"), 0);
  EXPECT_EQ(CountWhere("9223372036854775807 > 9223372036854775806"), 5);
  // An INTEGER against a REAL still compares as doubles.
  EXPECT_EQ(CountWhere("9007199254740993 = 9007199254740992.0"), 5);
  Exec("CREATE TABLE keys (n INTEGER)");
  Exec("INSERT INTO keys VALUES (9007199254740993), (9007199254740992), "
       "(9007199254740993)");
  ResultSet distinct = Exec("SELECT DISTINCT n FROM keys ORDER BY n");
  ASSERT_EQ(distinct.rows.size(), 2u);
  EXPECT_EQ(distinct.rows[0][0], Value::Integer(9007199254740992));
  ResultSet extremes = Exec("SELECT MIN(n), MAX(n) FROM keys");
  EXPECT_EQ(extremes.rows[0][0], Value::Integer(9007199254740992));
  EXPECT_EQ(extremes.rows[0][1], Value::Integer(9007199254740993));
}

TEST_F(SqlSemanticsTest, NanEqualsItselfAndSortsAboveEveryNumber) {
  const std::string nan = "(1e300 * 1e300 - 1e300 * 1e300)";
  // NaN compared equal to every number.
  EXPECT_EQ(CountWhere(nan + " = 5"), 0);
  EXPECT_EQ(CountWhere(nan + " = " + nan), 5);
  EXPECT_EQ(CountWhere(nan + " > 1e300 * 1e300"), 5);
  EXPECT_EQ(CountWhere(nan + " <> 5"), 5);
  Exec("CREATE TABLE reals (x REAL)");
  Exec("INSERT INTO reals VALUES (1.0), (" + nan + "), (1e300 * 1e300), "
       "(NULL), (-" + nan + "), (-1e300 * 1e300), (-0.0), (0.0)");
  ResultSet ordered = Exec("SELECT x FROM reals ORDER BY x");
  ASSERT_EQ(ordered.rows.size(), 8u);
  EXPECT_TRUE(ordered.rows[0][0].is_null());
  EXPECT_EQ(ordered.rows[1][0].ToSqlLiteral(), "-inf");
  EXPECT_EQ(ordered.rows[5][0].ToSqlLiteral(), "inf");
  EXPECT_TRUE(std::isnan(ordered.rows[6][0].AsReal()));
  EXPECT_TRUE(std::isnan(ordered.rows[7][0].AsReal()));
  // Both NaNs (of either sign) are one value; -0.0 and 0.0 are another.
  EXPECT_EQ(Exec("SELECT DISTINCT x FROM reals").rows.size(), 6u);
  ResultSet extremes = Exec("SELECT MIN(x), MAX(x) FROM reals");
  EXPECT_EQ(extremes.rows[0][0].ToSqlLiteral(), "-inf");
  EXPECT_TRUE(std::isnan(extremes.rows[0][1].AsReal()));
  // A hash join matches NaN with NaN, whatever the sign bit.
  ResultSet joined = Exec(
      "SELECT COUNT(*) FROM reals a, reals b WHERE a.x = b.x AND "
      "a.x > 1e308 * 10");
  EXPECT_EQ(joined.rows[0][0], Value::Integer(4));  // each NaN with both
}

TEST_F(SqlSemanticsTest, CorrelatedStyleSubqueryAgainstSameTable) {
  // Every row whose i equals the global minimum.
  ResultSet rs = Exec(
      "SELECT i FROM t WHERE i = (SELECT MIN(i) FROM t)");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value::Integer(1));
  // Nested two levels.
  ResultSet nested = Exec(
      "SELECT COUNT(*) FROM t WHERE i > (SELECT MIN(i) FROM t WHERE i > "
      "(SELECT MIN(i) FROM t))");
  EXPECT_EQ(nested.rows[0][0], Value::Integer(2));  // 4 and 5
  // MAX belongs to the subquery: the outer SELECT still projects one row
  // per row of t rather than collapsing into a single aggregate row.
  ResultSet projected = Exec("SELECT i, (SELECT MAX(i) FROM t) FROM t");
  ASSERT_EQ(projected.rows.size(), 5u);
  for (const auto& row : projected.rows) {
    EXPECT_EQ(row[1], Value::Integer(5));
  }
}

TEST_F(SqlSemanticsTest, ScalarSubqueryCardinalityErrors) {
  EXPECT_FALSE(engine_
                   ->Execute(session_,
                             "SELECT i FROM t WHERE i = "
                             "(SELECT i FROM t)")  // 5 rows
                   .ok());
  EXPECT_FALSE(engine_
                   ->Execute(session_,
                             "SELECT i FROM t WHERE i = "
                             "(SELECT i, r FROM t WHERE i = 1)")  // 2 cols
                   .ok());
}

/// Parameterized sweep: WHERE predicates and their expected match
/// counts over the fixture rows. The predicate is a std::string, not a
/// const char*, so the printed parameter (which ctest uses as the test
/// name) is the text alone and not a load-address-dependent pointer.
class PredicateSweepTest
    : public SqlSemanticsTest,
      public ::testing::WithParamInterface<std::tuple<std::string, int>> {
 protected:
  void SetUp() override { SqlSemanticsTest::SetUp(); }
};

TEST_P(PredicateSweepTest, MatchesExpectedRowCount) {
  auto [predicate, expected] = GetParam();
  EXPECT_EQ(CountWhere(predicate), expected) << predicate;
}

INSTANTIATE_TEST_SUITE_P(
    Predicates, PredicateSweepTest,
    ::testing::Values(
        std::make_tuple("TRUE", 5), std::make_tuple("FALSE", 0),
        std::make_tuple("i + 1 = 2", 1),
        std::make_tuple("i * i > 10", 2),
        std::make_tuple("r / 2 < 1", 1),
        std::make_tuple("ABS(0 - i) = i", 4),
        std::make_tuple("LENGTH(s) = 1", 4),
        std::make_tuple("UPPER(s) = 'A'", 2),
        std::make_tuple("i IS NULL OR s IS NULL", 2),
        std::make_tuple("i IS NULL AND s IS NULL", 0),
        std::make_tuple("NOT (i IS NULL OR s IS NULL)", 3),
        std::make_tuple("i BETWEEN 1 AND 5 AND s LIKE '_'", 3),
        std::make_tuple("ROUND(r) = 2.0", 1),
        std::make_tuple("i IN (SELECT MAX(i) FROM t)", 1)));

}  // namespace
}  // namespace msql::relational
