// SQL execution against one local engine: scans, joins, aggregates,
// subqueries, DML, DDL.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "obs/metrics.h"
#include "relational/engine.h"

namespace msql::relational {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<LocalEngine>(
        "test_svc", CapabilityProfile::IngresLike());
    ASSERT_TRUE(engine_->CreateDatabase("db").ok());
    session_ = *engine_->OpenSession("db");
    Exec("CREATE TABLE cars (code INTEGER, cartype TEXT, rate REAL, "
         "carst TEXT)");
    Exec("INSERT INTO cars VALUES (1, 'suv', 40.0, 'available'), "
         "(2, 'van', 30.0, 'rented'), (3, 'suv', 55.0, 'available'), "
         "(4, 'sedan', NULL, 'available')");
    Exec("CREATE TABLE rentals (code INTEGER, client TEXT)");
    Exec("INSERT INTO rentals VALUES (2, 'jones'), (9, 'smith')");
  }

  ResultSet Exec(std::string_view sql) {
    auto result = engine_->Execute(session_, sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status();
    return result.ok() ? std::move(*result) : ResultSet{};
  }

  Status ExecErr(std::string_view sql) {
    auto result = engine_->Execute(session_, sql);
    EXPECT_FALSE(result.ok()) << sql;
    return result.ok() ? Status::OK() : result.status();
  }

  std::unique_ptr<LocalEngine> engine_;
  SessionId session_ = 0;
};

TEST_F(ExecutorTest, ScanWithFilter) {
  ResultSet rs = Exec("SELECT code FROM cars WHERE carst = 'available' "
                      "ORDER BY code");
  ASSERT_EQ(rs.rows.size(), 3u);
  EXPECT_EQ(rs.rows[0][0], Value::Integer(1));
  EXPECT_EQ(rs.rows[2][0], Value::Integer(4));
}

TEST_F(ExecutorTest, ProjectionAliasesAndExpressions) {
  ResultSet rs = Exec(
      "SELECT code AS id, rate * 2 AS double_rate FROM cars "
      "WHERE code = 1");
  EXPECT_EQ(rs.columns, (std::vector<std::string>{"id", "double_rate"}));
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][1], Value::Real(80.0));
}

TEST_F(ExecutorTest, StarExpansion) {
  ResultSet rs = Exec("SELECT * FROM cars WHERE code = 1");
  EXPECT_EQ(rs.columns,
            (std::vector<std::string>{"code", "cartype", "rate", "carst"}));
}

TEST_F(ExecutorTest, NullSemanticsInFilters) {
  // rate = NULL is UNKNOWN, so row 4 never matches an ordinary compare.
  EXPECT_EQ(Exec("SELECT code FROM cars WHERE rate > 0").rows.size(), 3u);
  EXPECT_EQ(Exec("SELECT code FROM cars WHERE rate IS NULL").rows.size(),
            1u);
  EXPECT_EQ(
      Exec("SELECT code FROM cars WHERE NOT rate > 0").rows.size(), 0u);
}

TEST_F(ExecutorTest, CrossJoinWithPredicate) {
  ResultSet rs = Exec(
      "SELECT cars.code, rentals.client FROM cars, rentals "
      "WHERE cars.code = rentals.code");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][1], Value::Text("jones"));
}

TEST_F(ExecutorTest, JoinWithAliases) {
  ResultSet rs = Exec(
      "SELECT a.code FROM cars a, cars b WHERE a.code = b.code");
  EXPECT_EQ(rs.rows.size(), 4u);  // self-join on key
}

TEST_F(ExecutorTest, AmbiguousColumnRejected) {
  Status s = ExecErr("SELECT code FROM cars, rentals");
  EXPECT_NE(s.message().find("ambiguous"), std::string::npos);
}

TEST_F(ExecutorTest, Aggregates) {
  ResultSet rs = Exec(
      "SELECT COUNT(*), COUNT(rate), SUM(rate), MIN(rate), MAX(rate), "
      "AVG(rate) FROM cars");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value::Integer(4));
  EXPECT_EQ(rs.rows[0][1], Value::Integer(3));  // NULL skipped
  EXPECT_EQ(rs.rows[0][2], Value::Real(125.0));
  EXPECT_EQ(rs.rows[0][3], Value::Real(30.0));
  EXPECT_EQ(rs.rows[0][4], Value::Real(55.0));
  EXPECT_NEAR(rs.rows[0][5].AsReal(), 125.0 / 3, 1e-9);
}

TEST_F(ExecutorTest, AggregateOverEmptyInput) {
  ResultSet rs = Exec("SELECT COUNT(*), MAX(rate) FROM cars WHERE code > 99");
  ASSERT_EQ(rs.rows.size(), 1u);  // the global group always exists
  EXPECT_EQ(rs.rows[0][0], Value::Integer(0));
  EXPECT_TRUE(rs.rows[0][1].is_null());
}

TEST_F(ExecutorTest, GroupByHaving) {
  ResultSet rs = Exec(
      "SELECT cartype, COUNT(*) AS n FROM cars GROUP BY cartype "
      "HAVING COUNT(*) > 1 ORDER BY cartype");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value::Text("suv"));
  EXPECT_EQ(rs.rows[0][1], Value::Integer(2));
}

TEST_F(ExecutorTest, DistinctAndOrderDesc) {
  ResultSet rs = Exec(
      "SELECT DISTINCT cartype FROM cars ORDER BY cartype DESC");
  ASSERT_EQ(rs.rows.size(), 3u);
  EXPECT_EQ(rs.rows[0][0], Value::Text("van"));
  EXPECT_EQ(rs.rows[2][0], Value::Text("sedan"));
}

TEST_F(ExecutorTest, ScalarSubqueryReservationIdiom) {
  // The §3.4 idiom: pick the FREE seat with the lowest number.
  ResultSet rs = Exec(
      "SELECT code FROM cars WHERE code = "
      "(SELECT MIN(code) FROM cars WHERE carst = 'available')");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value::Integer(1));
}

TEST_F(ExecutorTest, ScalarSubqueryEmptyIsNull) {
  ResultSet rs = Exec(
      "SELECT code FROM cars WHERE rate = "
      "(SELECT rate FROM cars WHERE code = 99)");
  EXPECT_EQ(rs.rows.size(), 0u);  // NULL comparison filters everything
}

TEST_F(ExecutorTest, ScalarSubqueryRunsOncePerStatement) {
  // Only ExecuteSelect counts sql.selects, so the count is the number of
  // times the subquery ran: once for the statement, not once per row.
  obs::MetricsRegistry metrics;
  metrics.set_enabled(true);
  engine_->SetObservability(nullptr, &metrics);
  Exec("CREATE TABLE t (k INTEGER, v INTEGER)");
  std::string insert = "INSERT INTO t VALUES ";
  for (int k = 0; k < 100; ++k) {
    if (k > 0) insert += ", ";
    insert += "(" + std::to_string(k) + ", " + std::to_string(k % 2) + ")";
  }
  Exec(insert);
  int64_t selects = metrics.Get("sql.selects");
  ResultSet rs = Exec(
      "UPDATE t SET v = 0 WHERE k = (SELECT MIN(k) FROM t WHERE v > 0)");
  EXPECT_EQ(rs.rows_affected, 1);
  EXPECT_EQ(metrics.Get("sql.selects") - selects, 1);
  EXPECT_EQ(Exec("SELECT v FROM t WHERE k = 1").rows[0][0],
            Value::Integer(0));

  // A subquery no row reaches never runs, so one that would fail cannot
  // fail the statement; over a non-empty target it fails as before.
  Exec("CREATE TABLE empty (k INTEGER)");
  const std::string failing = "(SELECT COUNT(*) / 0 FROM t)";
  selects = metrics.Get("sql.selects");
  for (const std::string& sql :
       {"UPDATE empty SET k = " + failing + " WHERE k = " + failing,
        "DELETE FROM empty WHERE k = " + failing,
        "SELECT " + failing + " FROM empty WHERE k = " + failing,
        "UPDATE t SET v = " + failing + " WHERE k = 1000"}) {
    SCOPED_TRACE(sql);
    auto result = engine_->Execute(session_, sql);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->rows_affected, 0);
    EXPECT_TRUE(result->rows.empty());
  }
  // Only the SELECT statement itself counts; no subquery ran.
  EXPECT_EQ(metrics.Get("sql.selects") - selects, 1);
  EXPECT_EQ(ExecErr("UPDATE t SET v = " + failing + " WHERE k = 1").message(),
            "division by zero");
}

TEST_F(ExecutorTest, InBetweenLike) {
  EXPECT_EQ(Exec("SELECT code FROM cars WHERE code IN (1, 3)").rows.size(),
            2u);
  EXPECT_EQ(Exec("SELECT code FROM cars WHERE code NOT IN (1, 3)")
                .rows.size(),
            2u);
  EXPECT_EQ(
      Exec("SELECT code FROM cars WHERE rate BETWEEN 30 AND 41").rows.size(),
      2u);
  EXPECT_EQ(Exec("SELECT code FROM cars WHERE cartype LIKE 's%'")
                .rows.size(),
            3u);
  EXPECT_EQ(Exec("SELECT code FROM cars WHERE cartype LIKE '_uv'")
                .rows.size(),
            2u);
}

TEST_F(ExecutorTest, InSubquery) {
  ResultSet rs = Exec(
      "SELECT client FROM rentals WHERE code IN "
      "(SELECT MAX(code) FROM rentals)");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value::Text("smith"));
}

TEST_F(ExecutorTest, ScalarFunctions) {
  ResultSet rs = Exec(
      "SELECT UPPER(cartype), LOWER('ABC'), LENGTH(cartype), ABS(0 - 2), "
      "ROUND(rate / 7, 1) FROM cars WHERE code = 1");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value::Text("SUV"));
  EXPECT_EQ(rs.rows[0][1], Value::Text("abc"));
  EXPECT_EQ(rs.rows[0][2], Value::Integer(3));
  EXPECT_EQ(rs.rows[0][3], Value::Integer(2));
  EXPECT_EQ(rs.rows[0][4], Value::Real(5.7));
}

TEST_F(ExecutorTest, UpdateComputesAgainstSnapshot) {
  // rate% = rate% * 1.1 on all rows; the subquery-free case.
  ResultSet rs = Exec("UPDATE cars SET rate = rate * 2 WHERE rate > 35");
  EXPECT_EQ(rs.rows_affected, 2);
  EXPECT_EQ(Exec("SELECT rate FROM cars WHERE code = 1").rows[0][0],
            Value::Real(80.0));
  // The NULL-rated row was untouched.
  EXPECT_TRUE(Exec("SELECT rate FROM cars WHERE code = 4")
                  .rows[0][0].is_null());
}

TEST_F(ExecutorTest, UpdateWithSelfSubquerySeesPreUpdateState) {
  // Mark the cheapest available car as rented.
  ResultSet rs = Exec(
      "UPDATE cars SET carst = 'rented' WHERE code = "
      "(SELECT MIN(code) FROM cars WHERE carst = 'available')");
  EXPECT_EQ(rs.rows_affected, 1);
  EXPECT_EQ(Exec("SELECT carst FROM cars WHERE code = 1").rows[0][0],
            Value::Text("rented"));
}

TEST_F(ExecutorTest, DeleteRows) {
  EXPECT_EQ(Exec("DELETE FROM rentals WHERE client = 'smith'")
                .rows_affected,
            1);
  EXPECT_EQ(Exec("SELECT * FROM rentals").rows.size(), 1u);
  EXPECT_EQ(Exec("DELETE FROM rentals").rows_affected, 1);
  EXPECT_EQ(Exec("SELECT * FROM rentals").rows.size(), 0u);
}

TEST_F(ExecutorTest, InsertPartialColumnsFillsNull) {
  Exec("INSERT INTO cars (code, cartype) VALUES (10, 'mini')");
  ResultSet rs = Exec("SELECT rate, carst FROM cars WHERE code = 10");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_TRUE(rs.rows[0][0].is_null());
  EXPECT_TRUE(rs.rows[0][1].is_null());
}

TEST_F(ExecutorTest, InsertFromSelect) {
  Exec("CREATE TABLE expensive (code INTEGER, rate REAL)");
  Exec("INSERT INTO expensive SELECT code, rate FROM cars WHERE rate > 35");
  EXPECT_EQ(Exec("SELECT * FROM expensive").rows.size(), 2u);
}

TEST_F(ExecutorTest, ErrorsForMissingObjects) {
  EXPECT_EQ(ExecErr("SELECT * FROM ghost").code(), StatusCode::kNotFound);
  EXPECT_EQ(ExecErr("SELECT ghost FROM cars").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(ExecErr("UPDATE cars SET ghost = 1").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(ExecErr("INSERT INTO cars (ghost) VALUES (1)").code(),
            StatusCode::kNotFound);
}

TEST_F(ExecutorTest, ArityAndTypeErrors) {
  EXPECT_FALSE(
      engine_->Execute(session_, "INSERT INTO cars VALUES (1)").ok());
  EXPECT_FALSE(engine_
                   ->Execute(session_,
                             "INSERT INTO cars VALUES ('x', 'y', 1.0, 'z')")
                   .ok());
  EXPECT_FALSE(
      engine_->Execute(session_, "SELECT code + cartype FROM cars").ok());
  EXPECT_FALSE(
      engine_->Execute(session_, "SELECT rate / 0 FROM cars").ok());
}

TEST_F(ExecutorTest, DdlLifecycle) {
  Exec("CREATE TABLE temp1 (x INTEGER)");
  EXPECT_FALSE(
      engine_->Execute(session_, "CREATE TABLE temp1 (x INTEGER)").ok());
  Exec("DROP TABLE temp1");
  EXPECT_EQ(ExecErr("DROP TABLE temp1").code(), StatusCode::kNotFound);
}

TEST_F(ExecutorTest, QualifiedTableMustMatchSessionDatabase) {
  EXPECT_EQ(Exec("SELECT code FROM db.cars WHERE code = 1").rows.size(),
            1u);
  EXPECT_EQ(ExecErr("SELECT code FROM other.cars").code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace msql::relational
