// Differential property test for the local planner: randomized schemas,
// data, row churn and WHERE clauses. Each query's join stage (`SELECT *
// FROM ... WHERE ...`) runs through the planner — pushdown, probes, hash
// joins, or the cross-product plan — and on the naive cross-product
// oracle (naive_join_oracle.h) over the same database. Both must produce
// the same rows in the same order, or fail with the same Status text.
// UPDATE and DELETE with a generated WHERE must touch exactly the rows
// the engine's own one-table SELECT with that WHERE returns. Scalar
// subqueries, which the engine evaluates once per statement, are held in
// every placement to the oracle, which runs them anew for each row. The
// randomized workloads run on the in-memory row store and on the paged
// one, with a buffer pool that holds the data and with one that does
// not.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "naive_join_oracle.h"
#include "relational/engine.h"

namespace msql::relational {
namespace {

/// Where a test database keeps its rows.
enum class Store { kMemory, kPaged, kPagedSmallPool };
constexpr Store kStores[] = {Store::kMemory, Store::kPaged,
                             Store::kPagedSmallPool};

std::string StoreName(Store store) {
  switch (store) {
    case Store::kMemory: return "memory";
    case Store::kPaged: return "paged";
    case Store::kPagedSmallPool: return "paged, small pool";
  }
  return "?";
}

/// Frames of the small pool: fewer than the randomized databases' heap
/// and B+-tree pages, so scans and probes evict.
constexpr size_t kSmallPoolPages = 8;

/// One engine with one database "db" and a session on it. Paged stores
/// live in a fresh directory under the system temp dir, removed again
/// when the Db goes away.
struct Db {
  std::unique_ptr<LocalEngine> engine;
  SessionId session = 0;
  std::filesystem::path root;

  ~Db() {
    engine.reset();
    if (!root.empty()) std::filesystem::remove_all(root);
  }

  void Open(Store store = Store::kMemory) {
    engine = std::make_unique<LocalEngine>("svc",
                                           CapabilityProfile::IngresLike());
    if (store != Store::kMemory) {
      static int next_dir = 0;
      root = std::filesystem::temp_directory_path() /
             ("msql_planner_diff_" + std::to_string(::getpid()) + "_" +
              std::to_string(next_dir++));
      std::filesystem::remove_all(root);
      StorageConfig config;
      config.root_dir = root.string();
      if (store == Store::kPagedSmallPool) {
        config.buffer_pool_pages = kSmallPoolPages;
      }
      ASSERT_TRUE(engine->AttachStorage(config).ok());
    }
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

/// The engine's own rows of `table`, in scan order.
std::vector<Row> ScanOf(Db* db, const std::string& table) {
  auto rs = db->engine->Execute(db->session, "SELECT * FROM " + table);
  EXPECT_TRUE(rs.ok()) << table << " -> " << rs.status();
  return rs.ok() ? rs->rows : std::vector<Row>{};
}

/// SET clauses of the differential UPDATE over (k INTEGER, g TEXT,
/// v REAL); Assigned() gives the image each one makes of a row.
constexpr const char* kDmlSets[] = {"k = k + 1", "v = v + 1", "g = 'g9'"};

Row Assigned(Row row, size_t set) {
  switch (set) {
    case 0:
      if (!row[0].is_null()) row[0] = Value::Integer(row[0].AsInteger() + 1);
      break;
    case 1:
      if (!row[2].is_null()) row[2] = Value::Real(row[2].AsReal() + 1);
      break;
    default:
      row[1] = Value::Text("g9");
  }
  return row;
}

/// Holds `DELETE FROM t0 a0 WHERE <where>` and `UPDATE t0 a0 SET
/// kDmlSets[set] WHERE <where>`, each run inside BEGIN ... ROLLBACK, to
/// the engine's own `SELECT * FROM t0 a0 WHERE <where>` (itself held to
/// the oracle): they touch exactly the rows it returns, count its
/// rows_scanned and rows_evaluated, or fail with its Status text; the
/// rest of the scan is left as it was, in order, and the rollback
/// restores the scan taken before.
void CheckDmlMatchesSelect(Db* db, const std::string& where, size_t set) {
  const std::string suffix = where.empty() ? "" : " WHERE " + where;
  SCOPED_TRACE("t0 a0" + suffix);
  const std::vector<Row> before = ScanOf(db, "t0");
  const Result<ResultSet> select =
      RunBoth(db, "SELECT * FROM t0 a0" + suffix).planned;
  for (bool update : {false, true}) {
    const std::string dml =
        update ? "UPDATE t0 a0 SET " + std::string(kDmlSets[set]) + suffix
               : "DELETE FROM t0 a0" + suffix;
    db->Exec("BEGIN");
    auto result = db->engine->Execute(db->session, dml);
    if (!select.ok()) {
      // The failed statement aborted its transaction.
      ASSERT_FALSE(result.ok()) << dml;
      EXPECT_EQ(result.status().ToString(), select.status().ToString())
          << dml;
      EXPECT_EQ(ScanOf(db, "t0"), before) << dml;
      continue;
    }
    ASSERT_TRUE(result.ok()) << dml << " -> " << result.status();
    const std::vector<Row>& chosen = select->rows;
    EXPECT_EQ(result->rows_affected, static_cast<int64_t>(chosen.size()))
        << dml;
    EXPECT_EQ(result->rows_scanned, select->rows_scanned) << dml;
    EXPECT_EQ(result->rows_evaluated, select->rows_evaluated) << dml;
    // Equal rows meet the WHERE alike, so membership by value names the
    // chosen rows.
    std::vector<Row> expected;
    for (const Row& row : before) {
      if (std::find(chosen.begin(), chosen.end(), row) == chosen.end()) {
        expected.push_back(row);
      } else if (update) {
        expected.push_back(Assigned(row, set));
      }
    }
    EXPECT_EQ(ScanOf(db, "t0"), expected) << dml;
    db->Exec("ROLLBACK");
    EXPECT_EQ(ScanOf(db, "t0"), before) << dml;
  }
}

/// One random `(k, g, v)` row literal, NULLs sprinkled into every
/// column.
std::string RandomRow(Rng* rng) {
  std::string k = rng->NextBool(0.15) ? "NULL"
                                      : std::to_string(rng->NextInRange(0, 6));
  std::string g = rng->NextBool(0.15)
                      ? "NULL"
                      : "'g" + std::to_string(rng->NextInRange(0, 3)) + "'";
  std::string v = rng->NextBool(0.15)
                      ? "NULL"
                      : std::to_string(rng->NextInRange(0, 9)) + ".5";
  return "(" + k + ", " + g + ", " + v + ")";
}

/// Churn on `table` once its indexes exist: an UPDATE that keeps the
/// indexed columns k and g, one that changes k or g, a DELETE, and an
/// INSERT that takes the lowest freed slot. Each moves index entries
/// out of rowid order in an index that keeps insertion order.
std::vector<std::string> ChurnStatements(Rng* rng, const std::string& table) {
  auto k = [&] { return std::to_string(rng->NextInRange(0, 6)); };
  std::string change =
      rng->NextBool(0.5)
          ? "UPDATE " + table + " SET k = " + k() + " WHERE k = " + k()
          : "UPDATE " + table + " SET g = 'g" +
                std::to_string(rng->NextInRange(0, 3)) + "' WHERE v > " +
                std::to_string(rng->NextInRange(0, 9));
  return {
      "UPDATE " + table + " SET v = v + 1 WHERE k = " + k(),
      change,
      "DELETE FROM " + table + " WHERE k = " + k(),
      "INSERT INTO " + table + " VALUES " + RandomRow(rng),
  };
}

/// Fills `out` (opened on `store`) with a randomized schema + data: 2-3
/// tables named t0.. with columns (k INTEGER, g TEXT, v REAL) and random
/// single-column indexes, then churns every table and runs one more
/// round of churn inside a transaction that rolls back.
void BuildRandomDb(Rng* rng, Store store, Db* out, int* num_tables) {
  out->Open(store);
  *num_tables = static_cast<int>(rng->NextInRange(2, 3));
  for (int t = 0; t < *num_tables; ++t) {
    std::string name = "t" + std::to_string(t);
    out->Exec("CREATE TABLE " + name + " (k INTEGER, g TEXT, v REAL)");
    int rows = static_cast<int>(rng->NextInRange(0, 24));
    if (rows > 0) {
      std::string insert = "INSERT INTO " + name + " VALUES ";
      for (int r = 0; r < rows; ++r) {
        if (r > 0) insert += ", ";
        insert += RandomRow(rng);
      }
      out->Exec(insert);
    }
    if (rng->NextBool(0.5)) {
      const char* col = rng->NextBool(0.5) ? "k" : "g";
      out->Exec("CREATE INDEX idx_" + name + "_" + col + " ON " + name +
                " (" + col + ")");
    }
  }
  for (int t = 0; t < *num_tables; ++t) {
    std::string name = "t" + std::to_string(t);
    for (const std::string& sql : ChurnStatements(rng, name)) out->Exec(sql);
  }
  out->Exec("BEGIN");
  std::string victim = "t" + std::to_string(rng->NextBelow(*num_tables));
  for (const std::string& sql : ChurnStatements(rng, victim)) out->Exec(sql);
  out->Exec("ROLLBACK");
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

/// A random AND of 0..3 conjuncts over a0..a{num_tables-1} (empty for
/// none).
std::string RandomWhere(Rng* rng, int num_tables) {
  std::string where;
  int conjuncts = static_cast<int>(rng->NextInRange(0, 3));
  for (int c = 0; c < conjuncts; ++c) {
    if (c > 0) where += " AND ";
    where += RandomConjunct(rng, num_tables);
  }
  return where;
}

/// One random join stage over 1..`num_tables` aliased sources.
std::string RandomJoin(Rng* rng, int num_tables) {
  int from_count = static_cast<int>(rng->NextInRange(1, num_tables));
  std::string sql = "SELECT * FROM ";
  for (int t = 0; t < from_count; ++t) {
    if (t > 0) sql += ", ";
    sql += "t" + std::to_string(t) + " a" + std::to_string(t);
  }
  std::string where = RandomWhere(rng, from_count);
  return where.empty() ? sql : sql + " WHERE " + where;
}

TEST(PlannerDiffTest, PlannedAndNaivePathsAgreeOnRandomizedWorkload) {
  constexpr int kSeeds = 25;
  constexpr int kQueriesPerSeed = 16;
  for (Store store : kStores) {
    SCOPED_TRACE(StoreName(store));
    int64_t evictions = 0;
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
      Rng rng(seed * 0x51ed2701);
      // The DML WHEREs draw from their own stream, so the joins above
      // stay the ones every earlier run of this test generated.
      Rng dml_rng(seed * 0x2545f491);
      Db db;
      int num_tables = 0;
      BuildRandomDb(&rng, store, &db, &num_tables);
      if (::testing::Test::HasFatalFailure()) return;
      for (int q = 0; q < kQueriesPerSeed; ++q) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        RunBoth(&db, RandomJoin(&rng, num_tables));
        CheckDmlMatchesSelect(&db, RandomWhere(&dml_rng, 1),
                              static_cast<size_t>(q) % std::size(kDmlSets));
        if (::testing::Test::HasFatalFailure()) return;
      }
      if (db.engine->storage() != nullptr) {
        evictions += db.engine->storage()->pool().evictions();
      }
    }
    // The small pool really is smaller than the data.
    EXPECT_EQ(evictions > 0, store == Store::kPagedSmallPool);
  }
}

/// Uncorrelated scalar subqueries over `table`, aliased b so that no
/// name in them can mean an outer column: empty (NULL), aggregates (one
/// row, NULL or a count), a lookup of zero, one or several rows (several
/// is an error), every row (an error past one) and a division by zero
/// that fails wherever it runs.
std::string RandomSubquery(Rng* rng, const std::string& table) {
  const std::string from = " FROM " + table + " b";
  const std::string k = std::to_string(rng->NextInRange(0, 6));
  const std::string v = std::to_string(rng->NextInRange(0, 9));
  switch (rng->NextBelow(6)) {
    case 0:
      return "(SELECT b.k" + from + " WHERE b.k > 99)";
    case 1:
      return "(SELECT MIN(b.k)" + from + " WHERE b.v > " + v + ")";
    case 2:
      return "(SELECT COUNT(*)" + from + " WHERE b.k = " + k + ")";
    case 3:
      return "(SELECT b.k" + from + " WHERE b.k = " + k + " AND b.v > " + v +
             ")";
    case 4:
      return "(SELECT b.k" + from + ")";
    default:
      return "(SELECT COUNT(*) / 0" + from + ")";
  }
}

/// A conjunct that is TRUE or FALSE on every row, never NULL. The plan
/// keeps a subquery conjunct on the joined rows that every other
/// conjunct made TRUE, while the oracle goes on past a NULL one; with
/// these ahead of it, the same rows reach a failing subquery on both
/// paths.
std::string NullFreeConjunct(Rng* rng, int num_tables) {
  const std::string a = "a" + std::to_string(rng->NextBelow(num_tables));
  switch (rng->NextBelow(3)) {
    case 0:
      return a + ".k IS NOT NULL";
    case 1:
      return a + ".g IS NULL";
    default:
      return a + ".v IS NOT NULL";
  }
}

/// A WHERE of 0..2 null-free conjuncts and, last, one comparing the
/// outer row with `sub`: over one source, across two (a join residual),
/// or over none.
std::string SubqueryWhere(Rng* rng, int num_tables, const std::string& sub) {
  std::string where;
  for (int c = static_cast<int>(rng->NextInRange(0, 2)); c > 0; --c) {
    where += NullFreeConjunct(rng, num_tables) + " AND ";
  }
  const std::string a = "a" + std::to_string(rng->NextBelow(num_tables));
  const std::string b = "a" + std::to_string(rng->NextBelow(num_tables));
  switch (rng->NextBelow(3)) {
    case 0:
      return where + a + ".k = " + sub;
    case 1:
      return where + a + ".k + " + sub + " > " + b + ".k";
    default:
      return where + sub + " IS NULL";
  }
}

/// `sub`, a parenthesized SELECT, run as a statement of its own: what
/// the oracle computes for each row that reaches it.
Result<Value> NaiveSubquery(Db* db, const std::string& sub) {
  MSQL_ASSIGN_OR_RETURN(StatementPtr stmt,
                        ParseSql(sub.substr(1, sub.size() - 2)));
  return NaiveScalarSubquery(db->engine.get(), db->session,
                             static_cast<const SelectStmt&>(*stmt));
}

/// `rows` in Value::Compare order, for comparing multisets.
std::vector<Row> Sorted(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return std::lexicographical_compare(
        a.begin(), a.end(), b.begin(), b.end(),
        [](const Value& x, const Value& y) { return x.Compare(y) < 0; });
  });
  return rows;
}

/// What the subqueries a draw ran produced, so the test can require
/// that every kind of outcome was compared.
struct SubqueryTally {
  int nulls = 0;
  int values = 0;
  int errors = 0;

  void Count(const Result<Value>& value) {
    if (!value.ok()) {
      ++errors;
    } else if (value->is_null()) {
      ++nulls;
    } else {
      ++values;
    }
  }
};

/// `SELECT <sub> AS s, * FROM <sources> [WHERE <where>]` against the
/// oracle's join rows, each prefixed with the subquery's value computed
/// for that row; any row that meets a failing subquery fails the
/// statement with the subquery's Status.
void CheckSubqueryItem(Db* db, const std::string& from,
                       const std::string& where, const std::string& sub) {
  const std::string suffix = where.empty() ? "" : " WHERE " + where;
  const std::string sql = "SELECT " + sub + " AS s, *" + from + suffix;
  SCOPED_TRACE(sql);
  auto oracle = NaiveJoinSql(db->engine.get(), db->session, "db",
                             "SELECT *" + from + suffix);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  Status expected_error;
  std::vector<Row> expected;
  for (const Row& row : oracle->rows) {
    Result<Value> value = NaiveSubquery(db, sub);
    if (!value.ok()) {
      expected_error = value.status();
      break;
    }
    Row out = {*value};
    out.insert(out.end(), row.begin(), row.end());
    expected.push_back(std::move(out));
  }
  auto planned = db->engine->Execute(db->session, sql);
  if (!expected_error.ok()) {
    ASSERT_FALSE(planned.ok());
    EXPECT_EQ(planned.status().ToString(), expected_error.ToString());
    return;
  }
  ASSERT_TRUE(planned.ok()) << planned.status();
  EXPECT_EQ(planned->rows, expected);
}

/// `UPDATE t0 a0 SET k = <sub> [WHERE <where>]` inside BEGIN ... ROLLBACK
/// sets k to the subquery's value on exactly the rows the engine's
/// SELECT with that WHERE returns (held to the oracle), or fails with
/// the Status the first of them meets.
void CheckSubquerySet(Db* db, const std::string& where,
                      const std::string& sub) {
  const std::string suffix = where.empty() ? "" : " WHERE " + where;
  const std::string dml = "UPDATE t0 a0 SET k = " + sub + suffix;
  SCOPED_TRACE(dml);
  const std::vector<Row> before = ScanOf(db, "t0");
  const Result<ResultSet> select =
      RunBoth(db, "SELECT * FROM t0 a0" + suffix).planned;
  ASSERT_TRUE(select.ok()) << select.status();
  Status expected_error;
  std::vector<Row> expected;
  for (const Row& row : before) {
    if (std::find(select->rows.begin(), select->rows.end(), row) ==
        select->rows.end()) {
      expected.push_back(row);
      continue;
    }
    Result<Value> value = NaiveSubquery(db, sub);
    if (!value.ok()) {
      expected_error = value.status();
      break;
    }
    Row updated = row;
    updated[0] = *value;
    expected.push_back(std::move(updated));
  }
  db->Exec("BEGIN");
  auto result = db->engine->Execute(db->session, dml);
  if (!expected_error.ok()) {
    // The failed statement aborted its transaction.
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().ToString(), expected_error.ToString());
    EXPECT_EQ(ScanOf(db, "t0"), before);
    return;
  }
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->rows_affected,
            static_cast<int64_t>(select->rows.size()));
  EXPECT_EQ(ScanOf(db, "t0"), expected);
  db->Exec("ROLLBACK");
  EXPECT_EQ(ScanOf(db, "t0"), before);
}

/// `INSERT INTO <table> VALUES (<sub>, 'g1', 0.5), (<sub2>, NULL, 1.5)`
/// inside BEGIN ... ROLLBACK: both subqueries read `table` as it was
/// before the statement, so the new rows carry their stand-alone
/// values, or the statement fails with the first one's Status.
void CheckSubqueryValues(Db* db, const std::string& table,
                         const std::string& sub, const std::string& sub2) {
  const std::string dml = "INSERT INTO " + table + " VALUES (" + sub +
                          ", 'g1', 0.5), (" + sub2 + ", NULL, 1.5)";
  SCOPED_TRACE(dml);
  const std::vector<Row> before = ScanOf(db, table);
  Status expected_error;
  std::vector<Row> expected = before;
  const std::pair<const std::string*, Row> rows[] = {
      {&sub, {Value::Null_(), Value::Text("g1"), Value::Real(0.5)}},
      {&sub2, {Value::Null_(), Value::Null_(), Value::Real(1.5)}}};
  for (const auto& [text, row] : rows) {
    Result<Value> value = NaiveSubquery(db, *text);
    if (!value.ok()) {
      expected_error = value.status();
      break;
    }
    expected.push_back(row);
    expected.back()[0] = *value;
  }
  db->Exec("BEGIN");
  auto result = db->engine->Execute(db->session, dml);
  if (!expected_error.ok()) {
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().ToString(), expected_error.ToString());
    EXPECT_EQ(ScanOf(db, table), before);
    return;
  }
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->rows_affected, 2);
  // A new row may take a freed slot, so compare as multisets.
  EXPECT_EQ(Sorted(ScanOf(db, table)), Sorted(expected));
  db->Exec("ROLLBACK");
  EXPECT_EQ(ScanOf(db, table), before);
}

TEST(PlannerDiffTest, ScalarSubqueriesMatchThePerRowOracle) {
  // Every placement of an uncorrelated scalar subquery against the
  // oracle, which runs the subquery anew for each row that reaches it:
  // a WHERE conjunct over one source and across a join (the planner
  // keeps either on the joined rows), a select item, an UPDATE SET, an
  // UPDATE/DELETE WHERE and INSERT VALUES. Between two runs of the same
  // SELECT a committed statement changes the subquery's table, so its
  // second run must see the new value.
  constexpr int kSeeds = 12;
  constexpr int kDrawsPerSeed = 4;
  for (Store store : kStores) {
    SCOPED_TRACE(StoreName(store));
    SubqueryTally tally;
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      Rng rng(seed * 0x3c6ef372);
      Db db;
      int num_tables = 0;
      BuildRandomDb(&rng, store, &db, &num_tables);
      if (::testing::Test::HasFatalFailure()) return;
      for (int draw = 0; draw < kDrawsPerSeed; ++draw) {
        const std::string table =
            "t" + std::to_string(rng.NextBelow(num_tables));
        const std::string sub = RandomSubquery(&rng, table);
        tally.Count(NaiveSubquery(&db, sub));
        const int sources = static_cast<int>(rng.NextInRange(1, 2));
        const std::string from =
            sources == 1 ? " FROM t0 a0" : " FROM t0 a0, t1 a1";

        const std::string select =
            "SELECT *" + from + " WHERE " + SubqueryWhere(&rng, sources, sub);
        RunBoth(&db, select);
        {
          const std::vector<std::string> churn = ChurnStatements(&rng, table);
          const std::string& change = churn[rng.NextBelow(churn.size())];
          db.Exec(change);
          SCOPED_TRACE("again, after " + change);
          RunBoth(&db, select);
        }

        CheckSubqueryItem(&db, from, RandomWhere(&rng, sources), sub);
        CheckSubquerySet(&db, RandomWhere(&rng, 1), sub);
        CheckDmlMatchesSelect(&db, SubqueryWhere(&rng, 1, sub),
                              rng.NextBelow(std::size(kDmlSets)));
        CheckSubqueryValues(&db, table, sub, RandomSubquery(&rng, table));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    EXPECT_GT(tally.nulls, 0);
    EXPECT_GT(tally.values, 0);
    EXPECT_GT(tally.errors, 0);
  }
}

TEST(PlannerDiffTest, ProbeReturnsRowsInScanOrderAfterUpdate) {
  // An UPDATE that keeps the indexed key must not move the row to the
  // back of its key's probe result: probe, scan and oracle agree.
  for (Store store : kStores) {
    SCOPED_TRACE(StoreName(store));
    Db db;
    db.Open(store);
    db.Exec("CREATE TABLE t (k INTEGER, v INTEGER)");
    db.Exec("INSERT INTO t VALUES (1, 10), (1, 20), (2, 30)");
    db.Exec("CREATE INDEX i ON t (k)");
    db.Exec("UPDATE t SET v = 12 WHERE v = 10");
    if (::testing::Test::HasFatalFailure()) return;
    const std::vector<Row> expected = {{Value::Integer(1), Value::Integer(12)},
                                       {Value::Integer(1), Value::Integer(20)}};
    for (const char* where : {"k = 1", "k + 0 = 1"}) {
      JoinOutcome out =
          RunBoth(&db, std::string("SELECT * FROM t WHERE ") + where);
      ASSERT_TRUE(out.planned.ok()) << out.planned.status();
      EXPECT_EQ(out.planned->rows, expected) << where;
    }
  }
}

TEST(PlannerDiffTest, IndexedDmlNeverEvaluatesRowsOutsideTheProbe) {
  // With an index on k, `k = 1` is a probe: the row (2, 0), on which
  // `10 / v` divides by zero, is never fetched, so UPDATE and DELETE
  // succeed as the SELECT does. Without the index every row is
  // evaluated and all three fail alike.
  for (Store store : kStores) {
    SCOPED_TRACE(StoreName(store));
    Db db;
    db.Open(store);
    db.Exec("CREATE TABLE t (k INTEGER, v INTEGER)");
    db.Exec("INSERT INTO t VALUES (1, 5), (2, 0)");
    db.Exec("CREATE INDEX t_k ON t (k)");
    if (::testing::Test::HasFatalFailure()) return;
    const std::string where = " WHERE 10 / v > 1 AND k = 1";
    auto select = db.engine->Execute(db.session, "SELECT * FROM t" + where);
    ASSERT_TRUE(select.ok()) << select.status();
    EXPECT_EQ(select->rows,
              (std::vector<Row>{{Value::Integer(1), Value::Integer(5)}}));
    EXPECT_EQ(select->rows_scanned, 1);

    auto updated =
        db.engine->Execute(db.session, "UPDATE t SET v = 4" + where);
    ASSERT_TRUE(updated.ok()) << updated.status();
    EXPECT_EQ(updated->rows_affected, 1);
    EXPECT_EQ(updated->rows_scanned, 1);
    EXPECT_EQ(ScanOf(&db, "t"),
              (std::vector<Row>{{Value::Integer(1), Value::Integer(4)},
                                {Value::Integer(2), Value::Integer(0)}}));
    auto deleted = db.engine->Execute(db.session, "DELETE FROM t" + where);
    ASSERT_TRUE(deleted.ok()) << deleted.status();
    EXPECT_EQ(deleted->rows_affected, 1);
    EXPECT_EQ(ScanOf(&db, "t"),
              (std::vector<Row>{{Value::Integer(2), Value::Integer(0)}}));

    db.Exec("INSERT INTO t VALUES (1, 5)");
    db.Exec("DROP INDEX t_k ON t");
    if (::testing::Test::HasFatalFailure()) return;
    auto scanned = db.engine->Execute(db.session, "SELECT * FROM t" + where);
    ASSERT_FALSE(scanned.ok());
    for (const std::string& dml :
         {"UPDATE t SET v = 4" + where, "DELETE FROM t" + where}) {
      auto failed = db.engine->Execute(db.session, dml);
      ASSERT_FALSE(failed.ok()) << dml;
      EXPECT_EQ(failed.status().ToString(), scanned.status().ToString());
    }
  }
}

TEST(PlannerDiffTest, UpdateOfTheProbedKeyUpdatesEachRowOnce) {
  // The probe on k = 1 picks the rows before any of them moves to
  // k = 2, so each is updated exactly once.
  for (Store store : kStores) {
    SCOPED_TRACE(StoreName(store));
    Db db;
    db.Open(store);
    db.Exec("CREATE TABLE t (k INTEGER, v INTEGER)");
    db.Exec("INSERT INTO t VALUES (1, 10), (2, 20), (1, 30)");
    db.Exec("CREATE INDEX t_k ON t (k)");
    if (::testing::Test::HasFatalFailure()) return;
    auto updated =
        db.engine->Execute(db.session, "UPDATE t SET k = k + 1 WHERE k = 1");
    ASSERT_TRUE(updated.ok()) << updated.status();
    EXPECT_EQ(updated->rows_affected, 2);
    EXPECT_EQ(updated->rows_scanned, 2);
    const std::vector<Row> expected = {{Value::Integer(2), Value::Integer(10)},
                                       {Value::Integer(2), Value::Integer(20)},
                                       {Value::Integer(2), Value::Integer(30)}};
    EXPECT_EQ(ScanOf(&db, "t"), expected);
    JoinOutcome probed = RunBoth(&db, "SELECT * FROM t WHERE k = 2");
    ASSERT_TRUE(probed.planned.ok()) << probed.planned.status();
    EXPECT_EQ(probed.planned->rows, expected);
    EXPECT_EQ(probed.planned->rows_scanned, 3);
  }
}

TEST(PlannerDiffTest, SpecialNumericsAgreeWithTheOracleOnEveryStore) {
  // Hash joins, index probes and the per-row oracle all order by
  // Value::Compare: INTEGERs past 2^53 that share a double stay apart,
  // -0.0 meets 0.0, and NaN meets NaN whatever its sign bit.
  const std::string nan = "(1e300 * 1e300 - 1e300 * 1e300)";
  const std::string rows =
      " VALUES (9007199254740992, 'a', " + nan + "), (9007199254740993, 'b', -" +
      nan + "), (9223372036854775807, 'c', 1e300 * 1e300), "
      "(-9223372036854775807 - 1, 'd', -1e300 * 1e300), (0, 'e', -0.0), "
      "(NULL, 'f', 0.0), (9007199254740993, 'g', 1.0), (1, NULL, NULL)";
  for (Store store : kStores) {
    SCOPED_TRACE(StoreName(store));
    Db db;
    db.Open(store);
    for (const char* t : {"t0", "t1"}) {
      db.Exec("CREATE TABLE " + std::string(t) + " (k INTEGER, g TEXT, v REAL)");
      db.Exec("INSERT INTO " + std::string(t) + rows);
    }
    db.Exec("CREATE INDEX t0_v ON t0 (v)");
    db.Exec("CREATE INDEX t1_k ON t1 (k)");
    if (::testing::Test::HasFatalFailure()) return;
    for (const char* where :
         {"a0.v = a1.v", "a0.k = a1.k", "a0.v > a1.v", "a0.k < a1.k",
          "a0.v = 0.0", "a0.v = -0.0", "a1.k = 9007199254740993",
          "a1.k = 9007199254740992", "a0.k = a1.k AND a0.v = a1.v",
          "a1.k = -9223372036854775807 - 1"}) {
      RunBoth(&db, std::string("SELECT * FROM t0 a0, t1 a1 WHERE ") + where);
    }
    // Two NaN rows and the two zeros join across their signs: NaN with
    // both NaNs, each zero with both zeros.
    auto joined = db.engine->Execute(
        db.session, "SELECT COUNT(*) FROM t0 a0, t1 a1 WHERE a0.v = a1.v");
    ASSERT_TRUE(joined.ok()) << joined.status();
    EXPECT_EQ(joined->rows[0][0], Value::Integer(2 * 2 + 2 * 2 + 1 + 1 + 1));
    // The index probe of 0.0 finds -0.0 too, as the scan does.
    auto zeros = db.engine->Execute(
        db.session, "SELECT COUNT(*) FROM t0 WHERE v = 0.0");
    ASSERT_TRUE(zeros.ok()) << zeros.status();
    EXPECT_EQ(zeros->rows[0][0], Value::Integer(2));
    auto distinct = db.engine->Execute(
        db.session, "SELECT DISTINCT k FROM t1 ORDER BY k");
    ASSERT_TRUE(distinct.ok()) << distinct.status();
    EXPECT_EQ(distinct->rows.size(), 7u);  // NULL, MIN, 0, 1, 2^53, +1, MAX
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
      if (shape.sources == 1) {
        CheckDmlMatchesSelect(&db, shape.where, 0);
        if (::testing::Test::HasFatalFailure()) return;
      }
      JoinOutcome out = RunBoth(&db, sql);
      if (!out.planned.ok() || !out.oracle.ok()) continue;
      EXPECT_EQ(out.planned->rows_scanned, out.oracle->rows_scanned) << sql;
      EXPECT_EQ(out.planned->rows_evaluated,
                shape.sources == 1 ? 0 : out.oracle->rows_evaluated)
          << sql;
    }
  }
}

/// t0 and t1 with BuildUnresolvableDb's rows (t1 left empty unless
/// `fill_t1`), no index, on `store`.
void BuildScanDb(Store store, bool fill_t1, Db* out) {
  out->Open(store);
  out->Exec("CREATE TABLE t0 (k INTEGER, g TEXT, v REAL)");
  out->Exec("CREATE TABLE t1 (k INTEGER, g TEXT, v REAL)");
  out->Exec("INSERT INTO t0 VALUES (1, 'g1', 1.5), (2, 'g2', 2.5), "
            "(3, NULL, NULL), (2, 'g0', 0.5)");
  if (fill_t1) {
    out->Exec("INSERT INTO t1 VALUES (2, 'g1', 3.5), (NULL, 'g2', 1.5), "
              "(3, 'g1', NULL)");
  }
}

TEST(PlannerDiffTest, FailingPushedFilterMatchesTheOracleOnEveryStore) {
  // A scan evaluates a pushed filter on each stored row before it copies
  // the row. These filters fail on some t0 rows. An empty t1 still
  // empties the join before any filter runs; otherwise the first row to
  // fail is the oracle's. The second WHERE fails differently on
  // different rows (division by zero on k = 1, non-numeric arithmetic
  // on k = 2), so only the oracle's row order gives its Status.
  constexpr const char* kFailing[] = {
      "10 / (a0.k - 2) > 0",
      "(a0.k = 2 OR 10 / (a0.k - 1) > 0) AND (a0.k <> 2 OR a0.g + 1 > 0)",
  };
  for (Store store : kStores) {
    SCOPED_TRACE(StoreName(store));
    for (bool fill_t1 : {false, true}) {
      SCOPED_TRACE(fill_t1 ? "t1 filled" : "t1 empty");
      Db db;
      BuildScanDb(store, fill_t1, &db);
      if (::testing::Test::HasFatalFailure()) return;
      for (const char* where : kFailing) {
        const std::string join =
            std::string("SELECT * FROM t0 a0, t1 a1 WHERE ") + where;
        JoinOutcome two = RunBoth(&db, join);
        EXPECT_EQ(two.planned.ok(), !fill_t1) << join;
        if (two.planned.ok()) {
          EXPECT_TRUE(two.planned->rows.empty()) << join;
        }
        const std::string scan = std::string("SELECT * FROM t0 a0 WHERE ") +
                                 where;
        EXPECT_FALSE(RunBoth(&db, scan).planned.ok()) << scan;
      }
      // Guarded, the same division never fails: one source reports the
      // oracle's rows_scanned and rows_evaluated.
      const std::string guarded =
          "SELECT * FROM t0 a0 WHERE a0.k <> 2 AND 10 / (a0.k - 2) > 0";
      JoinOutcome out = RunBoth(&db, guarded);
      ASSERT_TRUE(out.planned.ok() && out.oracle.ok()) << out.planned.status();
      EXPECT_EQ(out.planned->rows.size(), 1u);
      EXPECT_EQ(out.planned->rows_scanned, out.oracle->rows_scanned);
      EXPECT_EQ(out.planned->rows_evaluated, out.oracle->rows_evaluated);
    }
  }
}

TEST(PlannerDiffTest, SelectListNamesFailOnlyOnAKeptRow) {
  // The select list binds a name on the first row the WHERE keeps, so an
  // unknown or ambiguous name there fails with its Status exactly when
  // some row is kept, and a WHERE that keeps none returns no rows.
  const std::string unknown =
      Status::NotFound("unknown column 'ghost'").ToString();
  const std::string unknown_qualified =
      Status::NotFound("unknown column 'a9.k'").ToString();
  const std::string ambiguous =
      Status::InvalidArgument("ambiguous column reference 'k'").ToString();
  struct Shape {
    const char* select;
    const char* from;
    const char* where;
    const std::string* error;  // null: no row is kept
  };
  const Shape shapes[] = {
      {"ghost", "t0 a0", "a0.k = 99", nullptr},
      {"ghost", "t0 a0", "a0.k = 2", &unknown},
      {"a0.k + a9.k", "t0 a0", "a0.v > 99", nullptr},
      {"a0.k + a9.k", "t0 a0", "a0.k = 3", &unknown_qualified},
      {"a0.g, ghost", "t0 a0, t1 a1", "a0.k = 99", nullptr},
      {"k", "t0 a0, t1 a1", "a0.k = 99 AND a1.k = 2", nullptr},
      {"k", "t0 a0, t1 a1", "a0.k = a1.k", &ambiguous},
  };
  for (Store store : kStores) {
    SCOPED_TRACE(StoreName(store));
    Db db;
    BuildScanDb(store, /*fill_t1=*/true, &db);
    if (::testing::Test::HasFatalFailure()) return;
    for (const Shape& shape : shapes) {
      const std::string suffix = std::string(" FROM ") + shape.from +
                                 " WHERE " + shape.where;
      const std::string sql = std::string("SELECT ") + shape.select + suffix;
      auto result = db.engine->Execute(db.session, sql);
      if (shape.error != nullptr) {
        EXPECT_EQ(result.status().ToString(), *shape.error) << sql;
        continue;
      }
      ASSERT_TRUE(result.ok()) << sql << " -> " << result.status();
      EXPECT_TRUE(result->rows.empty()) << sql;
      // The join stage is that of `SELECT *` with the same WHERE.
      JoinOutcome star = RunBoth(&db, "SELECT *" + suffix);
      ASSERT_TRUE(star.oracle.ok()) << star.oracle.status();
      EXPECT_EQ(result->rows_scanned, star.oracle->rows_scanned) << sql;
      if (std::string(shape.from) == "t0 a0") {
        EXPECT_EQ(result->rows_evaluated, star.oracle->rows_evaluated) << sql;
      }
    }
  }
}

TEST(PlannerDiffTest, PlannedPathNeverScansMoreThanNaive) {
  // rows_scanned on the planned path is bounded by the oracle's full
  // scans: probes can only shrink the fetch, never grow it.
  for (Store store : kStores) {
    SCOPED_TRACE(StoreName(store));
    for (uint64_t seed = 100; seed < 110; ++seed) {
      Rng rng(seed);
      Db db;
      int num_tables = 0;
      BuildRandomDb(&rng, store, &db, &num_tables);
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
}

}  // namespace
}  // namespace msql::relational
