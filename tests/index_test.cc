// Secondary indexes of the local engines: maintenance under DML and
// transactions, the executor's access-path selection, and DDL undo.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <random>

#include "relational/engine.h"
#include "relational/index.h"
#include "relational/storage_engine.h"

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
  // Both index implementations, each built by its row store over an
  // empty INTEGER column: the in-memory map and the paged B+-tree.
  const auto root = std::filesystem::temp_directory_path() /
                    ("msql_index_test_" + std::to_string(::getpid()));
  std::filesystem::remove_all(root);
  StorageConfig config;
  config.root_dir = root.string();
  StorageManager mgr(config);
  ASSERT_TRUE(mgr.Open().ok());
  auto schema = TableSchema::Create("t", {{"k", Type::kInteger, 0}});
  ASSERT_TRUE(schema.ok());
  auto paged = mgr.CreateTableStorage("db", *schema);
  ASSERT_TRUE(paged.ok()) << paged.status();
  std::unique_ptr<RowStore> stores[] = {NewMemoryRowStore(),
                                        std::move(*paged)};

  for (auto& store : stores) {
    SCOPED_TRACE(store.get() == stores[0].get() ? "memory" : "paged");
    auto built = store->BuildIndex("i", schema->column(0), 0);
    ASSERT_TRUE(built.ok()) << built.status();
    Index& index = **built;
    ASSERT_TRUE(index.Insert(Value::Integer(1), 10).ok());
    ASSERT_TRUE(index.Insert(Value::Integer(1), 11).ok());
    ASSERT_TRUE(index.Insert(Value::Integer(2), 12).ok());
    EXPECT_EQ(index.distinct_keys(), 2u);
    auto ids = [&](const Value& key) { return *index.LookupIds(key); };
    EXPECT_EQ(ids(Value::Integer(1)), (std::vector<RowId>{10, 11}));
    ASSERT_TRUE(index.Erase(Value::Integer(1), 10).ok());
    EXPECT_EQ(ids(Value::Integer(1)), (std::vector<RowId>{11}));
    // A lower rowid inserted after a higher one still comes back first:
    // LookupIds is ascending, not insertion order.
    ASSERT_TRUE(index.Insert(Value::Integer(1), 3).ok());
    ASSERT_TRUE(index.Insert(Value::Integer(1), 10).ok());
    EXPECT_EQ(ids(Value::Integer(1)), (std::vector<RowId>{3, 10, 11}));
    for (RowId id : {3, 10, 11}) {
      ASSERT_TRUE(index.Erase(Value::Integer(1), id).ok());
    }
    EXPECT_TRUE(ids(Value::Integer(1)).empty());
    EXPECT_EQ(index.distinct_keys(), 1u);
    EXPECT_TRUE(ids(Value::Integer(9)).empty());
    // Cross-numeric keys compare like values: 2 == 2.0.
    EXPECT_EQ(ids(Value::Real(2.0)), (std::vector<RowId>{12}));
  }
  for (auto& store : stores) store.reset();
  std::filesystem::remove_all(root);
}

TEST_F(IndexTest, BtreeDistinctKeysStayExactUnderChurn) {
  // One 100-byte TEXT value shared by 300 rows spans many B+-tree
  // leaves, so separators inside the tree carry it. Unique values flank
  // the run, some sharing all but its last bytes. Whole leaves of the
  // run empty out from either end and refill; after every step the
  // B+-tree's distinct count and probes must equal the memory map's.
  const auto root = std::filesystem::temp_directory_path() /
                    ("msql_index_churn_" + std::to_string(::getpid()));
  std::filesystem::remove_all(root);
  StorageConfig config;
  config.root_dir = root.string();
  StorageManager mgr(config);
  ASSERT_TRUE(mgr.Open().ok());
  auto schema = TableSchema::Create("t", {{"k", Type::kText, 0}});
  ASSERT_TRUE(schema.ok());
  auto paged_store = mgr.CreateTableStorage("db", *schema);
  ASSERT_TRUE(paged_store.ok()) << paged_store.status();
  std::unique_ptr<RowStore> memory_store = NewMemoryRowStore();
  auto paged = (*paged_store)->BuildIndex("i", schema->column(0), 0);
  auto memory = memory_store->BuildIndex("i", schema->column(0), 0);
  ASSERT_TRUE(paged.ok() && memory.ok());
  Index* indexes[] = {paged->get(), memory->get()};

  const std::string shared(100, 's');
  // Odd rowids get unique values below, just below, just above and
  // above the shared one.
  auto flank = [&](RowId id) {
    std::string tail = std::to_string(id);
    switch (id % 8) {
      case 1: return Value::Text("a" + tail);
      case 3: return Value::Text(shared.substr(0, 99) + "r" + tail);
      case 5: return Value::Text(shared + tail);
      default: return Value::Text("t" + tail);
    }
  };
  auto check = [&](const std::string& step) {
    SCOPED_TRACE(step);
    EXPECT_EQ(indexes[0]->distinct_keys(), indexes[1]->distinct_keys());
    for (const Value& probe : {Value::Text(shared), flank(1), flank(3)}) {
      auto got = indexes[0]->LookupIds(probe);
      auto want = indexes[1]->LookupIds(probe);
      ASSERT_TRUE(got.ok() && want.ok());
      EXPECT_EQ(*got, *want);
    }
  };
  auto insert = [&](const Value& key, RowId id) {
    for (Index* index : indexes) ASSERT_TRUE(index->Insert(key, id).ok());
    check("insert " + std::to_string(id));
  };
  auto erase = [&](const Value& key, RowId id) {
    for (Index* index : indexes) ASSERT_TRUE(index->Erase(key, id).ok());
    check("erase " + std::to_string(id));
  };

  for (RowId id = 0; id < 600; ++id) {
    insert(id % 2 == 0 ? Value::Text(shared) : flank(id), id);
  }
  EXPECT_EQ(indexes[0]->distinct_keys(), 301u);
  // Empty the run's lowest leaves, then its highest ones.
  for (RowId id = 0; id < 200; id += 2) erase(Value::Text(shared), id);
  for (RowId id = 598; id >= 400; id -= 2) erase(Value::Text(shared), id);
  // Refill the emptied low leaves from the top down, and drop flanking
  // values next to the run.
  for (RowId id = 198; id >= 100; id -= 2) insert(Value::Text(shared), id);
  for (RowId id = 3; id < 600; id += 8) erase(flank(id), id);
  for (RowId id = 5; id < 600; id += 8) erase(flank(id), id);
  // Whatever is left of the run goes in random order.
  std::vector<RowId> rest;
  for (RowId id = 100; id < 400; id += 2) rest.push_back(id);
  std::shuffle(rest.begin(), rest.end(), std::mt19937_64(1993));
  for (RowId id : rest) erase(Value::Text(shared), id);
  EXPECT_TRUE(indexes[0]->LookupIds(Value::Text(shared))->empty());
  EXPECT_EQ(indexes[0]->distinct_keys(), 150u);

  paged->reset();
  paged_store->reset();
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace msql::relational
