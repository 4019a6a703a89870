// Values, schemas, tables and result sets of the local engine substrate.
// Table cases run on both row stores: in memory and paged.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "relational/result_set.h"
#include "relational/schema.h"
#include "relational/storage_engine.h"
#include "relational/table.h"
#include "relational/value.h"

namespace msql::relational {
namespace {

TEST(ValueTest, TypePredicates) {
  EXPECT_TRUE(Value::Null_().is_null());
  EXPECT_TRUE(Value::Integer(1).is_integer());
  EXPECT_TRUE(Value::Real(1.5).is_real());
  EXPECT_TRUE(Value::Text("x").is_text());
  EXPECT_TRUE(Value::Boolean(true).is_boolean());
  EXPECT_TRUE(Value::Integer(1).is_numeric());
  EXPECT_TRUE(Value::Real(1.0).is_numeric());
  EXPECT_FALSE(Value::Text("1").is_numeric());
}

TEST(ValueTest, CrossNumericEquality) {
  EXPECT_EQ(Value::Integer(2), Value::Real(2.0));
  EXPECT_NE(Value::Integer(2), Value::Real(2.5));
  EXPECT_EQ(Value::Null_(), Value::Null_());  // strict equality for tests
  EXPECT_NE(Value::Null_(), Value::Integer(0));
}

TEST(ValueTest, CompareTotalOrder) {
  EXPECT_LT(Value::Null_().Compare(Value::Integer(-100)), 0);
  EXPECT_EQ(Value::Integer(3).Compare(Value::Real(3.0)), 0);
  EXPECT_GT(Value::Text("b").Compare(Value::Text("a")), 0);
  EXPECT_LT(Value::Boolean(false).Compare(Value::Boolean(true)), 0);
  // Two INTEGERs compare exactly, also where they share a double.
  const Value a = Value::Integer(9007199254740993);  // 2^53 + 1
  const Value b = Value::Integer(9007199254740992);  // 2^53
  EXPECT_GT(a.Compare(b), 0);
  EXPECT_NE(a, b);
  EXPECT_GT(Value::Integer(INT64_MAX).Compare(Value::Integer(INT64_MAX - 1)),
            0);
  // INTEGER against REAL goes through double: 2^53 + 1 becomes 2^53.
  EXPECT_EQ(a.Compare(Value::Real(9007199254740992.0)), 0);
  EXPECT_EQ(a, Value::Real(9007199254740992.0));
}

TEST(ValueTest, CompareIsATotalOrderThatAgreesWithEquality) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Value> values = {
      Value::Null_(),
      Value::Real(nan),
      Value::Real(-nan),
      Value::Real(inf),
      Value::Real(-inf),
      Value::Real(-0.0),
      Value::Real(0.0),
      Value::Real(5e-324),
      Value::Real(2.5),
      Value::Real(9007199254740992.0),
      Value::Integer(0),
      Value::Integer(2),
      Value::Integer(9007199254740992),
      Value::Integer(9007199254740993),
      Value::Integer(INT64_MIN),
      Value::Integer(INT64_MAX),
      Value::Text("a"),
      Value::Text(""),
      Value::Boolean(false),
      Value::Boolean(true)};
  auto sign = [](int c) { return (c > 0) - (c < 0); };
  // An INTEGER/REAL pair compares as doubles, so an INTEGER past 2^53
  // (2^53 + 1) can equal a REAL (2^53) that equals a smaller INTEGER:
  // transitivity holds for every triple but those.
  auto inexact_mix = [](const Value& a, const Value& b, const Value& c) {
    bool real = false;
    bool inexact = false;
    for (const Value* v : {&a, &b, &c}) {
      real |= v->is_real();
      inexact |= v->is_integer() && (v->AsInteger() > (int64_t{1} << 53) ||
                                     v->AsInteger() < -(int64_t{1} << 53));
    }
    return real && inexact;
  };
  for (const Value& x : values) {
    EXPECT_EQ(x.Compare(x), 0) << x;
    EXPECT_EQ(x, x) << x;
    for (const Value& y : values) {
      EXPECT_EQ(sign(x.Compare(y)), -sign(y.Compare(x))) << x << " " << y;
      EXPECT_EQ(x == y, x.Compare(y) == 0) << x << " " << y;
      for (const Value& z : values) {
        if (x.Compare(y) <= 0 && y.Compare(z) <= 0 &&
            !inexact_mix(x, y, z)) {
          EXPECT_LE(x.Compare(z), 0) << x << " " << y << " " << z;
        }
      }
    }
  }
  // NaN (of either sign) sits above every other number, infinity
  // included, and equals only NaN.
  EXPECT_GT(Value::Real(nan).Compare(Value::Real(inf)), 0);
  EXPECT_GT(Value::Real(-nan).Compare(Value::Integer(INT64_MAX)), 0);
  EXPECT_EQ(Value::Real(nan), Value::Real(-nan));
  EXPECT_NE(Value::Real(nan), Value::Real(5.0));
  EXPECT_LT(Value::Real(-inf).Compare(Value::Integer(INT64_MIN)), 0);
  EXPECT_EQ(Value::Real(-0.0), Value::Real(0.0));
}

TEST(ValueTest, LiteralAndDisplayWidthsAreTheirTextsLengths) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<Value> values = {
      Value::Null_(),
      Value::Integer(0),
      Value::Integer(9),
      Value::Integer(10),
      Value::Integer(-1),
      Value::Integer(-10),
      Value::Integer(99999),
      Value::Integer(INT64_MAX),
      Value::Integer(INT64_MIN),
      Value::Real(0.0),
      Value::Real(-0.0),
      Value::Real(2.0),
      Value::Real(0.1),
      Value::Real(-1234.5678),
      Value::Real(1e21),
      Value::Real(1e-7),
      Value::Real(5e-324),
      Value::Real(1.7976931348623157e308),
      Value::Real(inf),
      Value::Real(-inf),
      Value::Real(std::numeric_limits<double>::quiet_NaN()),
      Value::Real(-9223372036854775808.0),
      Value::Text(""),
      Value::Text("plain"),
      Value::Text("o'hare"),
      Value::Text("''''"),
      Value::Boolean(true),
      Value::Boolean(false)};
  for (const Value& v : values) {
    EXPECT_EQ(LiteralWidth(v), v.ToSqlLiteral().size()) << v.ToSqlLiteral();
    EXPECT_EQ(DisplayWidth(v), v.ToDisplayString().size())
        << v.ToSqlLiteral();
  }
}

TEST(ValueTest, SqlLiterals) {
  EXPECT_EQ(Value::Null_().ToSqlLiteral(), "NULL");
  EXPECT_EQ(Value::Integer(-7).ToSqlLiteral(), "-7");
  EXPECT_EQ(Value::Real(2.0).ToSqlLiteral(), "2.0");
  EXPECT_EQ(Value::Text("o'hare").ToSqlLiteral(), "'o''hare'");
  EXPECT_EQ(Value::Boolean(true).ToSqlLiteral(), "TRUE");
}

TEST(ValueTest, CoerceWidensIntToReal) {
  auto v = Value::Integer(4).CoerceTo(Type::kReal);
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_real());
  EXPECT_DOUBLE_EQ(v->AsReal(), 4.0);
}

TEST(ValueTest, CoerceExactRealToInt) {
  auto ok = Value::Real(5.0).CoerceTo(Type::kInteger);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->AsInteger(), 5);
  EXPECT_FALSE(Value::Real(5.5).CoerceTo(Type::kInteger).ok());
  // Integral but outside the INTEGER range: refused, never wrapped.
  for (double v : {1e19, -1e19, 0x1p63, std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity()}) {
    auto coerced = Value::Real(v).CoerceTo(Type::kInteger);
    ASSERT_FALSE(coerced.ok()) << v;
    EXPECT_EQ(coerced.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_FALSE(Value::Real(std::numeric_limits<double>::quiet_NaN())
                   .CoerceTo(Type::kInteger)
                   .ok());
  // -2^63 and the largest double below 2^63 fit.
  EXPECT_EQ(*Value::Real(-0x1p63).CoerceTo(Type::kInteger),
            Value::Integer(INT64_MIN));
  EXPECT_EQ(Value::Real(0x1.fffffffffffffp62).CoerceTo(Type::kInteger)
                ->AsInteger(),
            int64_t{0x7ffffffffffffc00});
}

TEST(ValueTest, CoerceRejectsCrossFamilies) {
  EXPECT_FALSE(Value::Text("9").CoerceTo(Type::kInteger).ok());
  EXPECT_FALSE(Value::Integer(1).CoerceTo(Type::kText).ok());
  // NULL fits everywhere.
  EXPECT_TRUE(Value::Null_().CoerceTo(Type::kText).ok());
}

TEST(TypeTest, NamesRoundTrip) {
  EXPECT_EQ(*TypeFromName("integer"), Type::kInteger);
  EXPECT_EQ(*TypeFromName("INT"), Type::kInteger);
  EXPECT_EQ(*TypeFromName("REAL"), Type::kReal);
  EXPECT_EQ(*TypeFromName("varchar"), Type::kText);
  EXPECT_EQ(*TypeFromName("bool"), Type::kBoolean);
  EXPECT_FALSE(TypeFromName("blob").ok());
}

TableSchema MakeCarsSchema() {
  auto schema = TableSchema::Create(
      "Cars", {{"Code", Type::kInteger, 0},
               {"CarType", Type::kText, 16},
               {"Rate", Type::kReal, 0}});
  EXPECT_TRUE(schema.ok());
  return *schema;
}

TEST(SchemaTest, NamesCanonicalizedToLower) {
  TableSchema schema = MakeCarsSchema();
  EXPECT_EQ(schema.table_name(), "cars");
  EXPECT_EQ(schema.column(0).name, "code");
  EXPECT_TRUE(schema.HasColumn("CODE"));
  EXPECT_EQ(*schema.FindColumn("carTYPE"), 1u);
  EXPECT_FALSE(schema.FindColumn("nope").has_value());
}

TEST(SchemaTest, DuplicateColumnRejected) {
  auto bad = TableSchema::Create("t", {{"a", Type::kInteger, 0},
                                       {"A", Type::kText, 0}});
  EXPECT_FALSE(bad.ok());
}

TEST(SchemaTest, MatchColumnsWildcard) {
  TableSchema schema = MakeCarsSchema();
  EXPECT_EQ(schema.MatchColumns("%code"),
            (std::vector<std::string>{"code"}));
  EXPECT_EQ(schema.MatchColumns("c%"),
            (std::vector<std::string>{"code", "cartype"}));
  EXPECT_TRUE(schema.MatchColumns("z%").empty());
}

TEST(SchemaTest, ProjectPreservesOrder) {
  TableSchema schema = MakeCarsSchema();
  auto projected = schema.Project({"rate", "code"});
  ASSERT_TRUE(projected.ok());
  EXPECT_EQ(projected->column(0).name, "rate");
  EXPECT_EQ(projected->column(1).name, "code");
  EXPECT_FALSE(schema.Project({"ghost"}).ok());
}

/// Runs each TableTest body on an empty cars table over the in-memory
/// row store, then over a paged one (a StorageManager under a temp dir).
class TableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("msql_table_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  template <typename Body>
  void OnBothStores(Body body) {
    {
      SCOPED_TRACE("memory store");
      paged_ = false;
      auto table = Table::Open(MakeCarsSchema(), NewMemoryRowStore());
      ASSERT_TRUE(table.ok()) << table.status();
      body(**table);
    }
    {
      SCOPED_TRACE("paged store");
      paged_ = true;
      StorageConfig config;
      config.root_dir = root_.string();
      StorageManager mgr(config);
      ASSERT_TRUE(mgr.Open().ok());
      auto storage = mgr.CreateTableStorage("db", MakeCarsSchema());
      ASSERT_TRUE(storage.ok()) << storage.status();
      auto table = Table::Open(MakeCarsSchema(), std::move(*storage));
      ASSERT_TRUE(table.ok()) << table.status();
      body(**table);
    }
  }

  std::filesystem::path root_;
  /// Whether OnBothStores is running its body on the paged store.
  bool paged_ = false;
};

TEST_F(TableTest, InsertCoercesAndCounts) {
  OnBothStores([](Table& table) {
    auto id = table.Insert({Value::Integer(1), Value::Text("suv"),
                            Value::Integer(40)});  // int→real coercion
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(table.live_row_count(), 1u);
    EXPECT_TRUE(table.ReadRow(*id)->at(2).is_real());
  });
}

TEST_F(TableTest, InsertRejectsBadArityAndType) {
  OnBothStores([](Table& table) {
    EXPECT_FALSE(table.Insert({Value::Integer(1)}).ok());
    EXPECT_FALSE(table.Insert({Value::Text("x"), Value::Text("y"),
                               Value::Real(1.0)}).ok());
    EXPECT_EQ(table.live_row_count(), 0u);
  });
}

TEST_F(TableTest, DeleteAndResurrectRoundTrip) {
  OnBothStores([](Table& table) {
    RowId id = *table.Insert(
        {Value::Integer(7), Value::Text("van"), Value::Real(30.0)});
    auto removed = table.Delete(id);
    ASSERT_TRUE(removed.ok());
    EXPECT_FALSE(table.IsLive(id));
    EXPECT_EQ(table.live_row_count(), 0u);
    ASSERT_TRUE(table.ResurrectRow(id, *removed).ok());
    EXPECT_TRUE(table.IsLive(id));
    EXPECT_EQ(table.ReadRow(id)->at(0), Value::Integer(7));
    // Double resurrect is an internal error, and so is resurrecting a
    // slot that was never allocated.
    EXPECT_FALSE(table.ResurrectRow(id, *removed).ok());
    EXPECT_FALSE(table.ResurrectRow(id + 1, *removed).ok());
  });
}

TEST_F(TableTest, UpdateReturnsBeforeImage) {
  OnBothStores([](Table& table) {
    RowId id = *table.Insert(
        {Value::Integer(1), Value::Text("suv"), Value::Real(40.0)});
    auto before = table.Update(
        id, {Value::Integer(1), Value::Text("suv"), Value::Real(44.0)});
    ASSERT_TRUE(before.ok());
    EXPECT_EQ((*before)[2], Value::Real(40.0));
    EXPECT_EQ(table.ReadRow(id)->at(2), Value::Real(44.0));
  });
}

TEST_F(TableTest, UpdateRejectedByAnIndexLeavesTheRowAsItWas) {
  // The paged store's B+-tree refuses a key over 900 bytes, so there the
  // update fails, after the store took the new image and the old key
  // left the index: both must be put back. The memory store's map index
  // takes any key, so there the same update succeeds.
  OnBothStores([this](Table& table) {
    ASSERT_TRUE(table.CreateIndex("by_type", "cartype").ok());
    const Row before = {Value::Integer(1), Value::Text("a"), Value::Real(1.0)};
    const Row wide = {Value::Integer(1), Value::Text(std::string(1000, 'x')),
                      Value::Real(1.0)};
    RowId id = *table.Insert(before);
    auto updated = table.Update(id, wide);
    const Index* index = table.FindIndexOnColumn("cartype");
    ASSERT_NE(index, nullptr);
    if (!paged_) {
      ASSERT_TRUE(updated.ok()) << updated.status();
      EXPECT_EQ(*table.ReadRow(id), wide);
      EXPECT_EQ(*index->LookupIds(wide[1]), std::vector<RowId>{id});
      EXPECT_TRUE(index->LookupIds(before[1])->empty());
      return;
    }
    ASSERT_FALSE(updated.ok());
    EXPECT_EQ(updated.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(*table.ReadRow(id), before);
    EXPECT_EQ(*table.ScanRows(), std::vector<Row>{before});
    EXPECT_EQ(*index->LookupIds(before[1]), std::vector<RowId>{id});
    EXPECT_EQ(index->distinct_keys(), 1u);
    EXPECT_EQ(table.live_row_count(), 1u);
  });
}

TEST_F(TableTest, ScanSkipsTombstones) {
  OnBothStores([](Table& table) {
    RowId a = *table.Insert(
        {Value::Integer(1), Value::Text("a"), Value::Real(1.0)});
    RowId b = *table.Insert(
        {Value::Integer(2), Value::Text("b"), Value::Real(2.0)});
    ASSERT_TRUE(table.Delete(a).ok());
    std::vector<RowId> ids;
    auto rows = table.ScanRows(&ids);
    ASSERT_TRUE(rows.ok()) << rows.status();
    ASSERT_EQ(rows->size(), 1u);
    EXPECT_EQ(ids, std::vector<RowId>{b});
    EXPECT_EQ(rows->at(0), *table.ReadRow(b));
    EXPECT_EQ(table.ScanRows()->size(), 1u);
  });
}

TEST_F(TableTest, InsertReusesTombstonedSlots) {
  OnBothStores([](Table& table) {
    std::vector<RowId> ids;
    for (int i = 0; i < 4; ++i) {
      ids.push_back(*table.Insert(
          {Value::Integer(i), Value::Text("t"), Value::Real(1.0)}));
    }
    EXPECT_EQ(table.slot_count(), 4u);
    ASSERT_TRUE(table.Delete(ids[1]).ok());
    ASSERT_TRUE(table.Delete(ids[3]).ok());
    EXPECT_EQ(table.free_slot_count(), 2u);

    // The next insert takes the lowest tombstoned slot instead of
    // growing the slot array.
    RowId reused = *table.Insert(
        {Value::Integer(10), Value::Text("r"), Value::Real(2.0)});
    EXPECT_EQ(reused, ids[1]);
    EXPECT_EQ(table.slot_count(), 4u);
    EXPECT_EQ(table.free_slot_count(), 1u);
    RowId reused2 = *table.Insert(
        {Value::Integer(11), Value::Text("r"), Value::Real(2.0)});
    EXPECT_EQ(reused2, ids[3]);
    EXPECT_EQ(table.free_slot_count(), 0u);

    // Only once the free list drains does the table grow again.
    RowId grown = *table.Insert(
        {Value::Integer(12), Value::Text("g"), Value::Real(3.0)});
    EXPECT_EQ(grown, 4u);
    EXPECT_EQ(table.slot_count(), 5u);

    // Churning delete/insert in a loop must not leak slots.
    for (int i = 0; i < 100; ++i) {
      RowId id = *table.Insert(
          {Value::Integer(100 + i), Value::Text("x"), Value::Real(1.0)});
      ASSERT_TRUE(table.Delete(id).ok());
    }
    EXPECT_LE(table.slot_count(), 6u);
    EXPECT_EQ(table.live_row_count(), 5u);
  });
}

TEST(ResultSetTest, ToStringRendersTable) {
  ResultSet rs;
  rs.columns = {"a", "longer"};
  rs.rows = {{Value::Integer(1), Value::Text("x")}};
  std::string rendered = rs.ToString();
  EXPECT_NE(rendered.find("| a | longer |"), std::string::npos);
  EXPECT_NE(rendered.find("(1 rows)"), std::string::npos);
}

TEST(ResultSetTest, DmlRendering) {
  ResultSet rs;
  rs.rows_affected = 3;
  EXPECT_EQ(rs.ToString(), "(3 rows affected)\n");
  EXPECT_FALSE(rs.IsQueryResult());
}

TEST(ResultSetTest, SortRowsIsDeterministic) {
  ResultSet rs;
  rs.columns = {"v"};
  rs.rows = {{Value::Integer(3)}, {Value::Integer(1)}, {Value::Integer(2)}};
  rs.SortRows();
  EXPECT_EQ(rs.rows[0][0], Value::Integer(1));
  EXPECT_EQ(rs.rows[2][0], Value::Integer(3));
}

}  // namespace
}  // namespace msql::relational
