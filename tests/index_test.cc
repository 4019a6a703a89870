// Secondary indexes of the local engines: maintenance under DML and
// transactions, the executor's access-path selection, and DDL undo.
#include <gtest/gtest.h>

#include <memory>

#include "relational/engine.h"
#include "relational/index.h"

namespace msql::relational {
namespace {

class IndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<LocalEngine>(
        "svc", CapabilityProfile::IngresLike());
    ASSERT_TRUE(engine_->CreateDatabase("db").ok());
    session_ = *engine_->OpenSession("db");
    Exec("CREATE TABLE t (id INTEGER, grp TEXT, v REAL)");
    std::string insert = "INSERT INTO t VALUES ";
    for (int i = 0; i < 50; ++i) {
      if (i > 0) insert += ", ";
      insert += "(" + std::to_string(i) + ", 'g" +
                std::to_string(i % 5) + "', " + std::to_string(i) + ".5)";
    }
    Exec(insert);
  }

  ResultSet Exec(std::string_view sql) {
    auto result = engine_->Execute(session_, sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status();
    return result.ok() ? std::move(*result) : ResultSet{};
  }

  const Table* GetT() {
    auto db = engine_->GetDatabase("db");
    return *(*db)->GetTableConst("t");
  }

  std::unique_ptr<LocalEngine> engine_;
  SessionId session_ = 0;
};

TEST_F(IndexTest, CreateDropLifecycle) {
  Exec("CREATE INDEX idx_id ON t (id)");
  EXPECT_TRUE(GetT()->HasIndex("idx_id"));
  EXPECT_EQ(GetT()->IndexNames(), (std::vector<std::string>{"idx_id"}));
  // Duplicate name / unknown column rejected.
  EXPECT_FALSE(
      engine_->Execute(session_, "CREATE INDEX idx_id ON t (v)").ok());
  EXPECT_FALSE(
      engine_->Execute(session_, "CREATE INDEX idx2 ON t (ghost)").ok());
  Exec("DROP INDEX idx_id ON t");
  EXPECT_FALSE(GetT()->HasIndex("idx_id"));
  EXPECT_FALSE(
      engine_->Execute(session_, "DROP INDEX idx_id ON t").ok());
}

TEST_F(IndexTest, ProbeCutsScannedRows) {
  ResultSet scan = Exec("SELECT v FROM t WHERE id = 7");
  EXPECT_EQ(scan.rows_scanned, 50);
  Exec("CREATE INDEX idx_id ON t (id)");
  ResultSet probe = Exec("SELECT v FROM t WHERE id = 7");
  EXPECT_EQ(probe.rows_scanned, 1);
  // Identical answers either way.
  ASSERT_EQ(probe.rows.size(), 1u);
  EXPECT_EQ(probe.rows[0][0], scan.rows[0][0]);
}

TEST_F(IndexTest, ProbeWorksWithExtraConjunctsAndReversedOperands) {
  Exec("CREATE INDEX idx_grp ON t (grp)");
  ResultSet rs = Exec(
      "SELECT id FROM t WHERE v > 10 AND 'g3' = grp ORDER BY id");
  EXPECT_EQ(rs.rows_scanned, 10);  // one group out of five
  ASSERT_GT(rs.rows.size(), 0u);
  for (const auto& row : rs.rows) {
    EXPECT_EQ(row[0].AsInteger() % 5, 3);
  }
}

TEST_F(IndexTest, NonEqualityStillScansButJoinsProbe) {
  Exec("CREATE INDEX idx_id ON t (id)");
  EXPECT_EQ(Exec("SELECT id FROM t WHERE id > 47").rows_scanned, 50);
  // Multi-table FROM probes too since the planner pushes `col = literal`
  // conjuncts to their source (the old executor scanned 100 rows here).
  EXPECT_EQ(
      Exec("SELECT a.id FROM t a, t b WHERE a.id = 1 AND b.id = 1")
          .rows_scanned,
      2);
}

TEST_F(IndexTest, MaintainedAcrossDml) {
  Exec("CREATE INDEX idx_grp ON t (grp)");
  Exec("INSERT INTO t VALUES (100, 'g3', 1.0)");
  EXPECT_EQ(Exec("SELECT id FROM t WHERE grp = 'g3'").rows.size(), 11u);
  Exec("UPDATE t SET grp = 'g9' WHERE id = 100");
  EXPECT_EQ(Exec("SELECT id FROM t WHERE grp = 'g3'").rows.size(), 10u);
  EXPECT_EQ(Exec("SELECT id FROM t WHERE grp = 'g9'").rows.size(), 1u);
  Exec("DELETE FROM t WHERE grp = 'g9'");
  EXPECT_EQ(Exec("SELECT id FROM t WHERE grp = 'g9'").rows.size(), 0u);
}

TEST_F(IndexTest, MaintainedAcrossRollback) {
  Exec("CREATE INDEX idx_grp ON t (grp)");
  ASSERT_TRUE(engine_->Begin(session_).ok());
  Exec("UPDATE t SET grp = 'moved' WHERE grp = 'g0'");
  EXPECT_EQ(Exec("SELECT id FROM t WHERE grp = 'moved'").rows.size(), 10u);
  ASSERT_TRUE(engine_->Rollback(session_).ok());
  // Undo restored the before-images AND their index entries.
  EXPECT_EQ(Exec("SELECT id FROM t WHERE grp = 'moved'").rows.size(), 0u);
  EXPECT_EQ(Exec("SELECT id FROM t WHERE grp = 'g0'").rows.size(), 10u);
}

TEST_F(IndexTest, IndexDdlRollsBack) {
  ASSERT_TRUE(engine_->Begin(session_).ok());
  Exec("CREATE INDEX idx_id ON t (id)");
  ASSERT_TRUE(engine_->Rollback(session_).ok());
  EXPECT_FALSE(GetT()->HasIndex("idx_id"));

  Exec("CREATE INDEX idx_id ON t (id)");
  ASSERT_TRUE(engine_->Begin(session_).ok());
  Exec("DROP INDEX idx_id ON t");
  ASSERT_TRUE(engine_->Rollback(session_).ok());
  EXPECT_TRUE(GetT()->HasIndex("idx_id"));
  // And the rebuilt index still answers probes correctly.
  EXPECT_EQ(Exec("SELECT v FROM t WHERE id = 3").rows_scanned, 1);
}

TEST_F(IndexTest, NullProbeNeverMatches) {
  Exec("CREATE INDEX idx_grp ON t (grp)");
  Exec("INSERT INTO t (id, v) VALUES (200, 1.0)");  // grp NULL
  // `grp = NULL` is UNKNOWN for every row — including the NULL-keyed one.
  EXPECT_EQ(Exec("SELECT id FROM t WHERE grp = NULL").rows.size(), 0u);
  // IS NULL still finds it (via scan).
  EXPECT_EQ(Exec("SELECT id FROM t WHERE grp IS NULL").rows.size(), 1u);
}

TEST_F(IndexTest, IndexStructureDirectly) {
  Index index("i", 0);
  index.Insert(Value::Integer(1), 10);
  index.Insert(Value::Integer(1), 11);
  index.Insert(Value::Integer(2), 12);
  EXPECT_EQ(index.distinct_keys(), 2u);
  auto ids = [&](const Value& key) { return *index.LookupIds(key); };
  EXPECT_EQ(ids(Value::Integer(1)), (std::vector<RowId>{10, 11}));
  index.Erase(Value::Integer(1), 10);
  EXPECT_EQ(ids(Value::Integer(1)), (std::vector<RowId>{11}));
  index.Erase(Value::Integer(1), 11);
  EXPECT_TRUE(ids(Value::Integer(1)).empty());
  EXPECT_EQ(index.distinct_keys(), 1u);
  EXPECT_TRUE(ids(Value::Integer(9)).empty());
  // Cross-numeric keys compare like values: 2 == 2.0.
  EXPECT_EQ(ids(Value::Real(2.0)), (std::vector<RowId>{12}));
}

}  // namespace
}  // namespace msql::relational
