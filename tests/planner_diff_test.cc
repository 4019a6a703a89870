// Differential property test for the local planner: randomized schemas,
// data and WHERE clauses. Each query's join stage (`SELECT * FROM ...
// WHERE ...`) runs through the planner — pushdown, probes, hash joins,
// or the cross-product plan — and on the naive cross-product oracle
// (naive_join_oracle.h) over the same database. Both must produce the
// same rows in the same order, or fail with the same Status text.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "naive_join_oracle.h"
#include "relational/engine.h"

namespace msql::relational {
namespace {

/// One engine with one database "db" and a session on it.
struct Db {
  std::unique_ptr<LocalEngine> engine;
  SessionId session = 0;

  void Open() {
    engine = std::make_unique<LocalEngine>("svc",
                                           CapabilityProfile::IngresLike());
    ASSERT_TRUE(engine->CreateDatabase("db").ok());
    session = *engine->OpenSession("db");
  }

  void Exec(const std::string& sql) {
    auto result = engine->Execute(session, sql);
    ASSERT_TRUE(result.ok()) << sql << " -> " << result.status();
  }
};

struct JoinOutcome {
  Result<ResultSet> planned;
  Result<OracleJoin> oracle;
};

/// Runs `sql` (a `SELECT *`) planned and on the oracle, and requires the
/// same Status text, or the same rows in the same order.
JoinOutcome RunBoth(Db* db, const std::string& sql) {
  JoinOutcome out{db->engine->Execute(db->session, sql),
                  NaiveJoinSql(db->engine.get(), db->session, "db", sql)};
  EXPECT_EQ(out.planned.ok(), out.oracle.ok())
      << sql << "\nplanned: " << out.planned.status()
      << "\noracle: " << out.oracle.status();
  if (out.planned.ok() && out.oracle.ok()) {
    EXPECT_EQ(out.planned->rows, out.oracle->rows) << sql;
  } else {
    EXPECT_EQ(out.planned.status().ToString(),
              out.oracle.status().ToString())
        << sql;
  }
  return out;
}

/// Fills the database with a randomized schema + data: 2-3 tables named
/// t0.. with columns (k INTEGER, g TEXT, v REAL), NULLs sprinkled into
/// every column, and random single-column indexes.
void BuildRandomDb(Rng* rng, Db* out, int* num_tables) {
  out->Open();
  *num_tables = static_cast<int>(rng->NextInRange(2, 3));
  for (int t = 0; t < *num_tables; ++t) {
    std::string name = "t" + std::to_string(t);
    out->Exec("CREATE TABLE " + name + " (k INTEGER, g TEXT, v REAL)");
    int rows = static_cast<int>(rng->NextInRange(0, 24));
    if (rows > 0) {
      std::string insert = "INSERT INTO " + name + " VALUES ";
      for (int r = 0; r < rows; ++r) {
        if (r > 0) insert += ", ";
        std::string k = rng->NextBool(0.15)
                            ? "NULL"
                            : std::to_string(rng->NextInRange(0, 6));
        std::string g =
            rng->NextBool(0.15)
                ? "NULL"
                : "'g" + std::to_string(rng->NextInRange(0, 3)) + "'";
        std::string v = rng->NextBool(0.15)
                            ? "NULL"
                            : std::to_string(rng->NextInRange(0, 9)) + ".5";
        insert += "(" + k + ", " + g + ", " + v + ")";
      }
      out->Exec(insert);
    }
    if (rng->NextBool(0.5)) {
      const char* col = rng->NextBool(0.5) ? "k" : "g";
      out->Exec("CREATE INDEX idx_" + name + "_" + col + " ON " + name +
                " (" + col + ")");
    }
  }
}

/// One random conjunct over the aliased tables a0..a{n-1}: equi joins,
/// pushable comparisons (indexable `= literal` included), non-pushable
/// cross-source comparisons, OR-of-equalities, IS NULL and LIKE.
std::string RandomConjunct(Rng* rng, int num_tables) {
  auto alias = [&](int t) { return "a" + std::to_string(t); };
  int t1 = static_cast<int>(rng->NextBelow(num_tables));
  int t2 = static_cast<int>(rng->NextBelow(num_tables));
  switch (rng->NextBelow(7)) {
    case 0:
      return alias(t1) + ".k = " + alias(t2) + ".k";
    case 1:
      return alias(t1) + ".k = " +
             std::to_string(rng->NextInRange(0, 6));
    case 2:
      return alias(t1) + ".g = 'g" +
             std::to_string(rng->NextInRange(0, 3)) + "'";
    case 3:
      return alias(t1) + ".v > " + alias(t2) + ".v";
    case 4:
      return "(" + alias(t1) + ".k = " +
             std::to_string(rng->NextInRange(0, 3)) + " OR " + alias(t1) +
             ".k = " + std::to_string(rng->NextInRange(3, 6)) + ")";
    case 5:
      return alias(t1) + ".k IS NOT NULL";
    default:
      return alias(t1) + ".g LIKE 'g%'";
  }
}

/// One random join stage over 1..`num_tables` aliased sources.
std::string RandomJoin(Rng* rng, int num_tables) {
  int from_count = static_cast<int>(rng->NextInRange(1, num_tables));
  std::string sql = "SELECT * FROM ";
  for (int t = 0; t < from_count; ++t) {
    if (t > 0) sql += ", ";
    sql += "t" + std::to_string(t) + " a" + std::to_string(t);
  }
  int conjuncts = static_cast<int>(rng->NextInRange(0, 3));
  for (int c = 0; c < conjuncts; ++c) {
    sql += (c == 0 ? " WHERE " : " AND ");
    sql += RandomConjunct(rng, from_count);
  }
  return sql;
}

TEST(PlannerDiffTest, PlannedAndNaivePathsAgreeOnRandomizedWorkload) {
  constexpr int kSeeds = 25;
  constexpr int kQueriesPerSeed = 16;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(seed * 0x51ed2701);
    Db db;
    int num_tables = 0;
    BuildRandomDb(&rng, &db, &num_tables);
    if (::testing::Test::HasFatalFailure()) return;
    for (int q = 0; q < kQueriesPerSeed; ++q) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      RunBoth(&db, RandomJoin(&rng, num_tables));
    }
  }
}

TEST(PlannerDiffTest, EmptyTablesAgreeAndNeverEstimateZeroRows) {
  // Regression for the 0-row estimate bug: all-empty sources must still
  // plan (estimates clamp to >= 1), agree with the naive oracle, and
  // EXPLAIN must never advertise a cost-free `est 0 row(s)` source.
  Db db;
  db.Open();
  for (int t = 0; t < 3; ++t) {
    db.Exec("CREATE TABLE t" + std::to_string(t) +
            " (k INTEGER, g TEXT, v REAL)");
  }
  if (::testing::Test::HasFatalFailure()) return;

  Rng rng(0x19930721);
  for (int q = 0; q < 32; ++q) {
    std::string sql = RandomJoin(&rng, 3);
    RunBoth(&db, sql);
    auto text = db.engine->ExplainSql(db.session, sql);
    ASSERT_TRUE(text.ok()) << sql;
    EXPECT_EQ(text->find("est 0 row(s)"), std::string::npos)
        << sql << "\n" << *text;
  }
}

/// WHERE clauses no single source owns every column of: an unknown
/// column, an unqualified column ambiguous across the two aliases, and
/// short-circuit escapes that reach the bad name on some rows only, or
/// on none. Each runs as `SELECT *` over `t0 a0` or `t0 a0, t1 a1`.
struct UnresolvableShape {
  int sources;
  const char* where;
};
constexpr UnresolvableShape kUnresolvableShapes[] = {
    {1, "ghost = 1"},
    {1, "a9.k = 1"},
    {1, "TRUE OR ghost = 1"},
    {1, "a0.k = 99 AND ghost = 1"},
    {1, "a0.k = 2 AND (TRUE OR ghost = 1)"},
    {1, "a0.k = 2 OR ghost = 1"},
    {2, "k = 1"},
    {2, "TRUE OR k = 1"},
    {2, "a0.k = 99 AND k = 1"},
    {2, "a0.k = a1.k AND (TRUE OR ghost = 1)"},
    {2, "a0.k = a1.k AND ghost = 1"},
    {2, "a1.g = 'g1' OR k = 1"},
};

/// t0/t1 with fixed rows (or none) and an optional index on t0.k. t0.k
/// holds no NULL, so `a0.k = 99` is FALSE, never unknown, on every row.
void BuildUnresolvableDb(bool fill_t0, bool fill_t1, bool indexed, Db* out) {
  out->Open();
  out->Exec("CREATE TABLE t0 (k INTEGER, g TEXT, v REAL)");
  out->Exec("CREATE TABLE t1 (k INTEGER, g TEXT, v REAL)");
  if (fill_t0) {
    out->Exec("INSERT INTO t0 VALUES (1, 'g1', 1.5), (2, 'g2', 2.5), "
              "(3, NULL, NULL), (2, 'g0', 0.5)");
  }
  if (fill_t1) {
    out->Exec("INSERT INTO t1 VALUES (2, 'g1', 3.5), (NULL, 'g2', 1.5), "
              "(3, 'g1', NULL)");
  }
  if (indexed) out->Exec("CREATE INDEX idx_t0_k ON t0 (k)");
}

TEST(PlannerDiffTest, UnresolvableWhereShapesMatchOracle) {
  // These shapes run as the cross-product plan. It scans every source,
  // as the oracle does, even where an index on t0 could serve an
  // `a0.k = <literal>` conjunct. Its rows_evaluated counts nested-loop
  // candidates only: none for one source, the whole cross product for
  // two, where the oracle counts every combined row.
  for (int variant = 0; variant < 8; ++variant) {
    const bool fill_t0 = (variant & 1) != 0;
    const bool fill_t1 = (variant & 2) != 0;
    const bool indexed = (variant & 4) != 0;
    Db db;
    BuildUnresolvableDb(fill_t0, fill_t1, indexed, &db);
    if (::testing::Test::HasFatalFailure()) return;
    for (const UnresolvableShape& shape : kUnresolvableShapes) {
      const std::string sql = std::string("SELECT * FROM t0 a0") +
                              (shape.sources == 2 ? ", t1 a1" : "") +
                              " WHERE " + shape.where;
      SCOPED_TRACE("variant " + std::to_string(variant));
      JoinOutcome out = RunBoth(&db, sql);
      if (!out.planned.ok() || !out.oracle.ok()) continue;
      EXPECT_EQ(out.planned->rows_scanned, out.oracle->rows_scanned) << sql;
      EXPECT_EQ(out.planned->rows_evaluated,
                shape.sources == 1 ? 0 : out.oracle->rows_evaluated)
          << sql;
    }
  }
}

TEST(PlannerDiffTest, PlannedPathNeverScansMoreThanNaive) {
  // rows_scanned on the planned path is bounded by the oracle's full
  // scans: probes can only shrink the fetch, never grow it.
  for (uint64_t seed = 100; seed < 110; ++seed) {
    Rng rng(seed);
    Db db;
    int num_tables = 0;
    BuildRandomDb(&rng, &db, &num_tables);
    if (::testing::Test::HasFatalFailure()) return;
    for (int q = 0; q < 8; ++q) {
      std::string sql = RandomJoin(&rng, num_tables);
      JoinOutcome out = RunBoth(&db, sql);
      if (!out.planned.ok() || !out.oracle.ok()) continue;
      EXPECT_LE(out.planned->rows_scanned, out.oracle->rows_scanned)
          << "seed " << seed << ": " << sql;
    }
  }
}

}  // namespace
}  // namespace msql::relational
