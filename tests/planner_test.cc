// Local query planner: predicate pushdown, index probes inside joins,
// hash equi-joins, the cross-product plan, plan rendering, and
// scan/evaluation accounting. Several tests run the planned join stage
// (`SELECT * FROM ... WHERE ...`) against the naive cross-product
// oracle (naive_join_oracle.h) and require identical rows in identical
// order.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "core/fixtures.h"
#include "core/mdbs_system.h"
#include "naive_join_oracle.h"
#include "relational/engine.h"

namespace msql::relational {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<LocalEngine>(
        "svc", CapabilityProfile::IngresLike());
    ASSERT_TRUE(engine_->CreateDatabase("db").ok());
    session_ = *engine_->OpenSession("db");
  }

  ResultSet Exec(std::string_view sql) {
    auto result = engine_->Execute(session_, sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status();
    return result.ok() ? std::move(*result) : ResultSet{};
  }

  /// Runs the join stage `SELECT * <from_where>` planned and on the
  /// oracle, requires identical rows in identical order, and returns
  /// both for accounting checks.
  std::pair<ResultSet, OracleJoin> ExecWithOracle(
      const std::string& from_where) {
    const std::string sql = "SELECT * " + from_where;
    ResultSet planned = Exec(sql);
    auto oracle = NaiveJoinSql(engine_.get(), session_, "db", sql);
    EXPECT_TRUE(oracle.ok()) << sql << " -> " << oracle.status();
    if (!oracle.ok()) return {std::move(planned), OracleJoin{}};
    EXPECT_EQ(planned.rows, oracle->rows) << sql;
    return {std::move(planned), std::move(*oracle)};
  }

  std::string Explain(std::string_view sql) {
    auto text = engine_->ExplainSql(session_, sql);
    EXPECT_TRUE(text.ok()) << sql << " -> " << text.status();
    return text.ok() ? *text : "";
  }

  /// The paper's flights/seats shape: a small airline schema with an
  /// equi-join and per-source predicates.
  void SeedFlights() {
    Exec("CREATE TABLE flights (fno INTEGER, dep TEXT, price REAL)");
    Exec("CREATE TABLE seats (fno INTEGER, class TEXT, avail INTEGER)");
    Exec("INSERT INTO flights VALUES (1, 'jfk', 150.0), (2, 'lax', 90.0),"
         " (3, 'jfk', 210.0), (4, 'ord', 120.0), (5, 'jfk', 75.0),"
         " (6, 'lax', 60.0)");
    Exec("INSERT INTO seats VALUES (1, 'y', 4), (1, 'f', 0), (2, 'y', 9),"
         " (3, 'y', 2), (3, 'f', 1), (4, 'y', 0), (5, 'y', 7),"
         " (6, 'f', 3)");
  }

  std::unique_ptr<LocalEngine> engine_;
  SessionId session_ = 0;
};

TEST_F(PlannerTest, GoldenExplainForPaperStyleJoin) {
  SeedFlights();
  std::string text = Explain(
      "SELECT f.fno, s.class FROM flights f, seats s "
      "WHERE f.fno = s.fno AND f.dep = 'jfk' AND s.avail > 0");
  EXPECT_EQ(text,
            "plan: 2 source(s), 2 pushed conjunct(s), 1 equi-join key(s)\n"
            "  source 0 (f): scan; filter f.dep = 'jfk'; est 1 row(s)\n"
            "  source 1 (s): scan; filter s.avail > 0; est 3 row(s)\n"
            "join order:\n"
            "  [0] start source 0 (f)\n"
            "  [1] hash join source 1 (s) on f.fno = s.fno\n");
}

TEST_F(PlannerTest, GoldenExplainWithIndexProbeAndCrossProductPlan) {
  SeedFlights();
  Exec("CREATE INDEX idx_fno ON flights (fno)");
  std::string probed = Explain(
      "SELECT f.price, s.class FROM flights f, seats s "
      "WHERE f.fno = 3 AND s.fno = 3");
  EXPECT_EQ(probed,
            "plan: 2 source(s), 1 pushed conjunct(s), 0 equi-join key(s)\n"
            "  source 0 (f): index probe idx_fno [fno = 3]; est 1 row(s)\n"
            "  source 1 (s): scan; filter s.fno = 3; est 1 row(s)\n"
            "join order:\n"
            // Both sources estimate 1 row; with no equi-join edges the
            // tie breaks on source name ("f" < "s"), never FROM position.
            "  [0] start source 0 (f)\n"
            "  [1] nested loop source 1 (s)\n");
  // A WHERE naming an unknown column cannot be split: the cross-product
  // plan scans every source and keeps the whole WHERE as the final
  // filter.
  std::string cross = Explain("SELECT f.fno FROM flights f WHERE ghost = 1");
  EXPECT_EQ(cross,
            "plan: 1 source(s), 0 pushed conjunct(s), 0 equi-join key(s)\n"
            "  source 0 (f): scan; est 6 row(s)\n"
            "join order:\n"
            "  [0] start source 0 (f)\n"
            "final filter: ghost = 1\n");
}

TEST_F(PlannerTest, JoinOrderTieBreaksByNameNotFromPosition) {
  // Both sources estimate the same row count and no equi-join edge
  // favors either, so the starting source is decided by name alone.
  // Before the fix the planner kept whichever source appeared first in
  // the FROM clause, so `FROM beta, alpha` started on beta.
  Exec("CREATE TABLE beta (x INTEGER)");
  Exec("CREATE TABLE alpha (x INTEGER)");
  Exec("INSERT INTO beta VALUES (1), (2)");
  Exec("INSERT INTO alpha VALUES (3), (4)");
  EXPECT_EQ(Explain("SELECT beta.x, alpha.x FROM beta, alpha"),
            "plan: 2 source(s), 0 pushed conjunct(s), 0 equi-join key(s)\n"
            "  source 0 (beta): scan; est 2 row(s)\n"
            "  source 1 (alpha): scan; est 2 row(s)\n"
            "join order:\n"
            "  [0] start source 1 (alpha)\n"
            "  [1] nested loop source 0 (beta)\n");
  // Permuting the FROM clause must not change the chosen anchor.
  EXPECT_EQ(Explain("SELECT beta.x, alpha.x FROM alpha, beta"),
            "plan: 2 source(s), 0 pushed conjunct(s), 0 equi-join key(s)\n"
            "  source 0 (alpha): scan; est 2 row(s)\n"
            "  source 1 (beta): scan; est 2 row(s)\n"
            "join order:\n"
            "  [0] start source 0 (alpha)\n"
            "  [1] nested loop source 1 (beta)\n");
  // Reordering never leaks into the answer: FROM-major row order holds.
  ExecWithOracle("FROM beta, alpha");
}

TEST_F(PlannerTest, EmptySourceEstimatesClampToOneRow) {
  // Regression: an empty table used to estimate 0 rows, making it look
  // cost-free and letting `est 0 row(s)` propagate through join steps
  // that still scan the other side. Estimates clamp to >= 1 post-filter.
  Exec("CREATE TABLE empty_t (id INTEGER)");
  Exec("CREATE TABLE full_t (id INTEGER)");
  Exec("INSERT INTO full_t VALUES (1), (2), (3)");
  EXPECT_EQ(Explain("SELECT empty_t.id, full_t.id FROM full_t, empty_t "
                    "WHERE empty_t.id = full_t.id"),
            "plan: 2 source(s), 0 pushed conjunct(s), 1 equi-join key(s)\n"
            "  source 0 (full_t): scan; est 3 row(s)\n"
            "  source 1 (empty_t): scan; est 1 row(s)\n"
            "join order:\n"
            "  [0] start source 1 (empty_t)\n"
            "  [1] hash join source 0 (full_t) on empty_t.id = full_t.id\n");
  ResultSet planned = Exec(
      "SELECT empty_t.id, full_t.id FROM full_t, empty_t "
      "WHERE empty_t.id = full_t.id");
  EXPECT_TRUE(planned.rows.empty());
}

TEST_F(PlannerTest, PlannedJoinMatchesNaiveAnswerAndOrder) {
  SeedFlights();
  auto [planned, oracle] = ExecWithOracle(
      "FROM flights f, seats s "
      "WHERE f.fno = s.fno AND s.avail > 0 AND f.price < 200.0");
  EXPECT_EQ(planned.rows.size(), 4u);
  EXPECT_GT(oracle.rows_evaluated, planned.rows_evaluated);
}

TEST_F(PlannerTest, DuplicateJoinKeysPreserveCrossProductOrder) {
  // Multiple matches on both sides: the hash join must reproduce the
  // odometer's FROM-major row order, not hash-bucket order.
  Exec("CREATE TABLE l (k INTEGER, tag TEXT)");
  Exec("CREATE TABLE r (k INTEGER, tag TEXT)");
  Exec("INSERT INTO l VALUES (1, 'l1'), (2, 'l2'), (1, 'l3'), (2, 'l4')");
  Exec("INSERT INTO r VALUES (2, 'r1'), (1, 'r2'), (1, 'r3')");
  auto [planned, oracle] = ExecWithOracle("FROM l, r WHERE l.k = r.k");
  EXPECT_EQ(planned.rows.size(), 6u);
}

TEST_F(PlannerTest, IndexProbeWorksInMultiTableSelect) {
  // Regression for the old `stmt.from.size() == 1` gate: creating an
  // index on the filtered table must cut rows_scanned even when the
  // SELECT joins another table.
  Exec("CREATE TABLE big (id INTEGER, v REAL)");
  std::string insert = "INSERT INTO big VALUES ";
  for (int i = 0; i < 100; ++i) {
    if (i > 0) insert += ", ";
    insert += "(" + std::to_string(i) + ", " + std::to_string(i) + ".5)";
  }
  Exec(insert);
  Exec("CREATE TABLE u (k INTEGER)");
  Exec("INSERT INTO u VALUES (7), (8), (9), (10)");

  const std::string sql =
      "SELECT big.v, u.k FROM big, u WHERE big.id = 7 AND big.id = u.k";
  ResultSet unindexed = Exec(sql);
  EXPECT_EQ(unindexed.rows_scanned, 104);
  Exec("CREATE INDEX idx_id ON big (id)");
  ResultSet indexed = Exec(sql);
  EXPECT_EQ(indexed.rows_scanned, 1 + 4);  // probe big, scan u
  EXPECT_LT(indexed.rows_scanned, unindexed.rows_scanned);
  EXPECT_EQ(indexed, unindexed);
  ASSERT_EQ(indexed.rows.size(), 1u);
}

TEST_F(PlannerTest, ViewScansIncludeRecursiveBaseTableCost) {
  Exec("CREATE TABLE t (id INTEGER, v REAL)");
  std::string insert = "INSERT INTO t VALUES ";
  for (int i = 0; i < 100; ++i) {
    if (i > 0) insert += ", ";
    insert += "(" + std::to_string(i) + ", 1.0)";
  }
  Exec(insert);
  Exec("CREATE VIEW allt AS SELECT id, v FROM t");
  // 100 base rows scanned to materialize the view + 100 view rows
  // scanned by the outer SELECT. The old accounting dropped the
  // recursive half and reported 100.
  EXPECT_EQ(Exec("SELECT id FROM allt").rows_scanned, 200);
  EXPECT_EQ(ExecWithOracle("FROM allt").second.rows_scanned, 200);
}

TEST_F(PlannerTest, NullJoinKeysNeverMatch) {
  Exec("CREATE TABLE l (k INTEGER)");
  Exec("CREATE TABLE r (k INTEGER)");
  Exec("INSERT INTO l VALUES (1), (NULL), (2)");
  Exec("INSERT INTO r VALUES (NULL), (1), (1)");
  auto [planned, oracle] = ExecWithOracle("FROM l, r WHERE l.k = r.k");
  EXPECT_EQ(planned.rows.size(), 2u);  // 1 matches twice; NULLs never
}

TEST_F(PlannerTest, ThreeWayEquiChainCollapsesRowsEvaluated) {
  for (const char* name : {"t1", "t2", "t3"}) {
    Exec("CREATE TABLE " + std::string(name) + " (id INTEGER, v REAL)");
    std::string insert = "INSERT INTO " + std::string(name) + " VALUES ";
    for (int i = 0; i < 20; ++i) {
      if (i > 0) insert += ", ";
      insert += "(" + std::to_string(i) + ", " + std::to_string(i) + ".0)";
    }
    Exec(insert);
  }
  auto [planned, oracle] = ExecWithOracle(
      "FROM t1, t2, t3 WHERE t1.id = t2.id AND t2.id = t3.id");
  ASSERT_EQ(planned.rows.size(), 20u);
  EXPECT_EQ(oracle.rows_evaluated, 20 * 20 * 20);
  // Hash steps touch only genuine key matches: 20 candidates per step.
  EXPECT_LE(planned.rows_evaluated, 2 * 20);
  EXPECT_GE(oracle.rows_evaluated, 10 * planned.rows_evaluated);
}

TEST_F(PlannerTest, AggregatesAndDistinctAgreeWithNaivePath) {
  // Grouping, DISTINCT and ORDER BY run once, after the join, so the
  // oracle checks the join stages and the answers are pinned.
  SeedFlights();
  const std::string join = "FROM flights f, seats s WHERE f.fno = s.fno";
  ExecWithOracle(join);
  ExecWithOracle(join + " AND s.avail > (SELECT MIN(avail) FROM seats)");
  EXPECT_EQ(Exec("SELECT DISTINCT f.dep " + join + " ORDER BY f.dep").rows,
            (std::vector<Row>{{Value::Text("jfk")},
                              {Value::Text("lax")},
                              {Value::Text("ord")}}));
  EXPECT_EQ(Exec("SELECT f.dep, COUNT(*), MIN(s.avail) " + join +
                 " GROUP BY f.dep ORDER BY f.dep")
                .rows,
            (std::vector<Row>{
                {Value::Text("jfk"), Value::Integer(5), Value::Integer(0)},
                {Value::Text("lax"), Value::Integer(2), Value::Integer(3)},
                {Value::Text("ord"), Value::Integer(1), Value::Integer(0)}}));
  EXPECT_EQ(Exec("SELECT COUNT(*) " + join +
                 " AND s.avail > (SELECT MIN(avail) FROM seats)")
                .rows,
            (std::vector<Row>{{Value::Integer(6)}}));
}

TEST_F(PlannerTest, UnresolvableWhereErrorsMatchOracle) {
  SeedFlights();
  for (const char* sql :
       {"SELECT * FROM flights f, seats s WHERE ghost = 1",
        "SELECT * FROM flights f, seats s WHERE fno = 1"}) {
    auto planned = engine_->Execute(session_, sql);
    auto oracle = NaiveJoinSql(engine_.get(), session_, "db", sql);
    ASSERT_FALSE(planned.ok()) << sql;
    ASSERT_FALSE(oracle.ok()) << sql;
    EXPECT_EQ(planned.status().ToString(), oracle.status().ToString());
  }
}

TEST_F(PlannerTest, UnresolvableWhereScansDespiteIndex) {
  // The cross-product plan has no probes: although `f.fno = 3` could
  // probe the index, all 6 rows are scanned, and a single source forms
  // no join candidates.
  SeedFlights();
  Exec("CREATE INDEX idx_fno ON flights (fno)");
  auto [planned, oracle] =
      ExecWithOracle("FROM flights f WHERE f.fno = 3 AND (TRUE OR ghost = 1)");
  ASSERT_EQ(planned.rows.size(), 1u);
  EXPECT_EQ(planned.rows_scanned, 6);
  EXPECT_EQ(planned.rows_evaluated, 0);
  // Because every row is evaluated, the Status does not depend on the
  // index: a probe for `f.fno = 99` would read no row and succeed, but
  // the plan fails on the first row, as it does without the index.
  const std::string sql =
      "SELECT * FROM flights f WHERE ghost = 1 AND f.fno = 99";
  auto indexed = engine_->Execute(session_, sql);
  Exec("DROP INDEX idx_fno ON flights");
  auto unindexed = engine_->Execute(session_, sql);
  ASSERT_FALSE(indexed.ok());
  ASSERT_FALSE(unindexed.ok());
  EXPECT_EQ(indexed.status().ToString(), unindexed.status().ToString());
}

TEST_F(PlannerTest, ExplainRejectsInsertAndDdl) {
  SeedFlights();
  for (const char* sql :
       {"INSERT INTO flights VALUES (7, 'sfo', 99.0)",
        "CREATE TABLE extra (a INTEGER)", "DROP TABLE seats",
        "CREATE INDEX idx_dep ON flights (dep)",
        "CREATE VIEW cheap AS SELECT fno FROM flights"}) {
    auto text = engine_->ExplainSql(session_, sql);
    ASSERT_FALSE(text.ok()) << sql;
    EXPECT_EQ(text.status().code(), StatusCode::kInvalidArgument) << sql;
  }
  // Nothing ran.
  EXPECT_EQ(Exec("SELECT * FROM flights").rows.size(), 6u);
  EXPECT_EQ(Exec("SELECT * FROM seats").rows.size(), 8u);
}

TEST_F(PlannerTest, GoldenExplainForUpdateProbeAndDeleteScan) {
  // UPDATE and DELETE pick their rows with the one-source plan of
  // `SELECT * FROM target WHERE ...`: an indexed `col = literal` is a
  // probe, the rest are pushed filters. With plan collection on, the
  // statement's result carries the same text.
  SeedFlights();
  Exec("CREATE INDEX idx_fno ON flights (fno)");
  const std::string update =
      "UPDATE flights SET price = price * 2 WHERE fno = 3 AND dep = 'jfk'";
  const std::string update_plan =
      "plan: 1 source(s), 1 pushed conjunct(s), 0 equi-join key(s)\n"
      "  source 0 (flights): index probe idx_fno [fno = 3]; "
      "filter dep = 'jfk'; est 1 row(s)\n"
      "join order:\n"
      "  [0] start source 0 (flights)\n";
  EXPECT_EQ(Explain(update), update_plan);
  const std::string del = "DELETE FROM seats s WHERE s.avail = 0";
  const std::string delete_plan =
      "plan: 1 source(s), 1 pushed conjunct(s), 0 equi-join key(s)\n"
      "  source 0 (s): scan; filter s.avail = 0; est 1 row(s)\n"
      "join order:\n"
      "  [0] start source 0 (s)\n";
  EXPECT_EQ(Explain(del), delete_plan);

  engine_->set_collect_plan_text(true);
  ResultSet updated = Exec(update);
  EXPECT_EQ(updated.plan_text, update_plan);
  EXPECT_EQ(updated.rows_affected, 1);
  EXPECT_EQ(updated.rows_scanned, 1);
  EXPECT_EQ(updated.rows_evaluated, 1);
  ResultSet deleted = Exec(del);
  EXPECT_EQ(deleted.plan_text, delete_plan);
  EXPECT_EQ(deleted.rows_affected, 2);
  EXPECT_EQ(deleted.rows_scanned, 8);
  EXPECT_EQ(deleted.rows_evaluated, 8);
}

TEST(PlannerFederationTest, CollectedPlansCoverUpdateTasks) {
  // The shell's `\plan` shows the row selection of every UPDATE task of
  // the fare raise, as it shows SELECT tasks.
  auto sys = msql::core::BuildPaperFederation();
  ASSERT_TRUE(sys.ok()) << sys.status();
  (*sys)->set_collect_plans(true);
  auto report = (*sys)->Execute(
      "USE continental VITAL delta united VITAL\n"
      "UPDATE flight% SET rate% = rate% * 1.1\n"
      "WHERE sour% = 'Houston' AND dest% = 'San Antonio'");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_NE(report->plan_text.find(
                "task t_united:\n"
                "plan: 1 source(s), 2 pushed conjunct(s), 0 equi-join "
                "key(s)\n"
                "  source 0 (flight): scan; filter sour = 'Houston'; "
                "filter dest = 'San Antonio'; est 1 row(s)\n"
                "join order:\n"
                "  [0] start source 0 (flight)\n"),
            std::string::npos)
      << report->plan_text;
  EXPECT_NE(report->plan_text.find("task t_continental:\n"),
            std::string::npos);
  EXPECT_NE(report->plan_text.find("task t_delta:\n"), std::string::npos);
}

TEST_F(PlannerTest, PlanTextTravelsWithResultWhenCollected) {
  SeedFlights();
  EXPECT_TRUE(Exec("SELECT fno FROM flights").plan_text.empty());
  engine_->set_collect_plan_text(true);
  ResultSet rs = Exec(
      "SELECT f.fno FROM flights f, seats s WHERE f.fno = s.fno");
  EXPECT_NE(rs.plan_text.find("hash join"), std::string::npos);
  // The wire format must not grow: plan text is diagnostics only.
  ResultSet bare = rs;
  bare.plan_text.clear();
  EXPECT_EQ(bare, rs);
}

}  // namespace
}  // namespace msql::relational
