// Query-graph decomposition of multidatabase joins (§4.3): largest
// local subqueries + modified global query Q'.
#include <gtest/gtest.h>

#include "mdbs/global_data_dictionary.h"
#include "msql/decomposer.h"
#include "relational/sql/parser.h"

namespace msql::lang {
namespace {

using relational::SelectStmt;
using relational::TableSchema;
using relational::Type;

class DecomposerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(gdd_.RegisterDatabase("avis", "avis_svc").ok());
    ASSERT_TRUE(gdd_.RegisterDatabase("continental", "cont_svc").ok());
    ASSERT_TRUE(
        gdd_.PutTable("avis", *TableSchema::Create(
                                  "cars", {{"code", Type::kInteger, 0},
                                           {"city", Type::kText, 0},
                                           {"rate", Type::kReal, 0}}))
            .ok());
    ASSERT_TRUE(gdd_.PutTable(
                        "continental",
                        *TableSchema::Create(
                            "flights", {{"flnu", Type::kInteger, 0},
                                        {"destination", Type::kText, 0},
                                        {"rate", Type::kReal, 0}}))
                    .ok());
    ASSERT_TRUE(gdd_.PutTable(
                        "continental",
                        *TableSchema::Create(
                            "f838", {{"seatnu", Type::kInteger, 0},
                                     {"seatstatus", Type::kText, 0}}))
                    .ok());
  }

  Result<Decomposition> Decompose(std::string_view sql) {
    auto stmt = relational::ParseSql(sql);
    if (!stmt.ok()) return stmt.status();
    return Decomposer(&gdd_).Decompose(
        static_cast<const SelectStmt&>(**stmt));
  }

  Result<Decomposition> DecomposeCostBased(std::string_view sql,
                                           const CostContext& ctx) {
    auto stmt = relational::ParseSql(sql);
    if (!stmt.ok()) return stmt.status();
    Decomposer decomposer(&gdd_);
    decomposer.set_cost_based(true);
    decomposer.set_cost_context(&ctx);
    return decomposer.Decompose(static_cast<const SelectStmt&>(**stmt));
  }

  /// Fresh-looking statistics for one table: every column `width` bytes
  /// wide with `distinct` distinct values.
  static TableCostStats MakeStats(int64_t rows, int64_t distinct,
                                  double width,
                                  std::initializer_list<const char*> cols) {
    TableCostStats ts;
    ts.row_count = rows;
    for (const char* c : cols) {
      ts.columns[c] = ColumnCostStats{distinct, width};
      ts.avg_row_bytes += width;
    }
    return ts;
  }

  mdbs::GlobalDataDictionary gdd_;
};

TEST_F(DecomposerTest, DetectsMultidatabaseFrom) {
  auto multi = relational::ParseSql(
      "SELECT 1 FROM avis.cars, continental.flights");
  ASSERT_TRUE(multi.ok());
  EXPECT_TRUE(Decomposer::IsMultidatabase(
      static_cast<const SelectStmt&>(**multi)));
  auto local = relational::ParseSql("SELECT 1 FROM cars, rentals");
  EXPECT_FALSE(Decomposer::IsMultidatabase(
      static_cast<const SelectStmt&>(**local)));
}

TEST_F(DecomposerTest, PushesLocalConjunctsDown) {
  auto d = Decompose(
      "SELECT cars.code, flights.flnu FROM avis.cars, continental.flights "
      "WHERE cars.city = flights.destination AND cars.rate < 50 "
      "AND flights.rate < 300");
  ASSERT_TRUE(d.ok()) << d.status();
  ASSERT_EQ(d->subqueries.size(), 2u);
  // Local filters ended up inside the right subqueries.
  std::string avis_sql, cont_sql;
  for (const auto& sub : d->subqueries) {
    if (sub.database == "avis") avis_sql = sub.select->ToSql();
    if (sub.database == "continental") cont_sql = sub.select->ToSql();
  }
  EXPECT_NE(avis_sql.find("cars.rate < 50"), std::string::npos) << avis_sql;
  EXPECT_EQ(avis_sql.find("300"), std::string::npos);
  EXPECT_NE(cont_sql.find("flights.rate < 300"), std::string::npos);
  // The cross-database join predicate stays in Q'.
  std::string global = d->global_query->ToSql();
  EXPECT_NE(global.find("mdbs_tmp_avis.cars__city = "
                        "mdbs_tmp_continental.flights__destination"),
            std::string::npos)
      << global;
  EXPECT_EQ(global.find("< 50"), std::string::npos);
}

TEST_F(DecomposerTest, ShipsOnlyNeededColumns) {
  auto d = Decompose(
      "SELECT cars.code FROM avis.cars, continental.flights "
      "WHERE cars.city = flights.destination");
  ASSERT_TRUE(d.ok()) << d.status();
  for (const auto& sub : d->subqueries) {
    if (sub.database == "avis") {
      // code (select) + city (join) but NOT rate.
      EXPECT_EQ(sub.temp_schema.num_columns(), 2u);
      EXPECT_TRUE(sub.temp_schema.HasColumn("cars__code"));
      EXPECT_TRUE(sub.temp_schema.HasColumn("cars__city"));
    } else {
      EXPECT_EQ(sub.temp_schema.num_columns(), 1u);
      EXPECT_TRUE(sub.temp_schema.HasColumn("flights__destination"));
    }
  }
}

TEST_F(DecomposerTest, CoordinatorHasMostTables) {
  auto d = Decompose(
      "SELECT cars.code FROM avis.cars, continental.flights, "
      "continental.f838 WHERE cars.code = f838.seatnu");
  ASSERT_TRUE(d.ok()) << d.status();
  EXPECT_EQ(d->coordinator, "continental");  // two tables vs one
}

TEST_F(DecomposerTest, CoordinatorStableUnderFromPermutation) {
  // Regression guard: with one table per database the table-count
  // heuristic ties, and the tie must resolve to the first database
  // alphabetically — never to FROM (or USE-scope) clause order. Both
  // permutations elect avis.
  auto a = Decompose(
      "SELECT cars.code, flights.flnu FROM avis.cars, continental.flights "
      "WHERE cars.city = flights.destination");
  auto b = Decompose(
      "SELECT cars.code, flights.flnu FROM continental.flights, avis.cars "
      "WHERE cars.city = flights.destination");
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(a->coordinator, "avis");
  EXPECT_EQ(b->coordinator, "avis");
  // A genuine majority beats the alphabetical tie-break in every
  // permutation of the FROM clause.
  for (const char* sql :
       {"SELECT cars.code FROM avis.cars, continental.flights, "
        "continental.f838",
        "SELECT cars.code FROM continental.flights, avis.cars, "
        "continental.f838",
        "SELECT cars.code FROM continental.flights, continental.f838, "
        "avis.cars"}) {
    auto d = Decompose(sql);
    ASSERT_TRUE(d.ok()) << sql << " -> " << d.status();
    EXPECT_EQ(d->coordinator, "continental") << sql;
  }
}

TEST_F(DecomposerTest, CostBasedFallsBackWithoutFreshStats) {
  // Cost-based mode with no (or partial) statistics must behave exactly
  // like the paper-heuristic path and say why in the cost breakdown.
  CostContext ctx;
  auto d = DecomposeCostBased(
      "SELECT cars.code FROM avis.cars, continental.flights "
      "WHERE cars.city = flights.destination",
      ctx);
  ASSERT_TRUE(d.ok()) << d.status();
  EXPECT_FALSE(d->cost_based);
  EXPECT_EQ(d->coordinator, "avis");  // the heuristic answer
  EXPECT_NE(d->cost_text.find("mode=heuristic"), std::string::npos)
      << d->cost_text;
  EXPECT_NE(d->cost_text.find("run ANALYZE"), std::string::npos);
  for (const auto& sub : d->subqueries) EXPECT_FALSE(sub.semi_join);

  // Statistics for only one of the two tables is still a gap.
  ctx.stats[{"avis", "cars"}] =
      MakeStats(10, 10, 8.0, {"code", "city", "rate"});
  auto partial = DecomposeCostBased(
      "SELECT cars.code FROM avis.cars, continental.flights "
      "WHERE cars.city = flights.destination",
      ctx);
  ASSERT_TRUE(partial.ok()) << partial.status();
  EXPECT_FALSE(partial->cost_based);
  EXPECT_NE(partial->cost_text.find("continental.flights"),
            std::string::npos)
      << partial->cost_text;
}

TEST_F(DecomposerTest, CostBasedCoordinatorAvoidsExpensiveLink) {
  // Heuristically continental wins (two tables vs one), but its site
  // sits behind a link three orders of magnitude more expensive per KB,
  // so the optimizer moves the join to avis and says so.
  CostContext ctx;
  ctx.mdbs_site = "mdbs";
  ctx.site_of_db["avis"] = "site_a";
  ctx.site_of_db["continental"] = "site_c";
  ctx.links[{"site_c", "mdbs"}] = LinkCost{1000, 100000};
  ctx.stats[{"avis", "cars"}] =
      MakeStats(10, 10, 8.0, {"code", "city", "rate"});
  ctx.stats[{"continental", "flights"}] =
      MakeStats(10, 10, 8.0, {"flnu", "destination", "rate"});
  ctx.stats[{"continental", "f838"}] =
      MakeStats(10, 10, 8.0, {"seatnu", "seatstatus"});
  auto d = DecomposeCostBased(
      "SELECT cars.code FROM avis.cars, continental.flights, "
      "continental.f838 WHERE cars.code = f838.seatnu",
      ctx);
  ASSERT_TRUE(d.ok()) << d.status();
  EXPECT_TRUE(d->cost_based);
  EXPECT_EQ(d->coordinator, "avis");
  EXPECT_NE(d->cost_text.find("mode=cost-based coordinator=avis"),
            std::string::npos)
      << d->cost_text;
  EXPECT_NE(d->cost_text.find("heuristic would pick continental"),
            std::string::npos)
      << d->cost_text;
}

TEST_F(DecomposerTest, CostBasedChoosesSemiJoinForSkewedRemote) {
  // A huge remote partial joined on a column with few distinct keys at
  // the coordinator: shipping the coordinator's DISTINCT keys out and
  // only the matching rows back beats shipping the whole thing.
  CostContext ctx;
  ctx.stats[{"avis", "cars"}] = MakeStats(10, 5, 8.0, {"code", "city"});
  ctx.stats[{"continental", "flights"}] =
      MakeStats(100000, 50000, 8.0, {"flnu", "destination"});
  auto d = DecomposeCostBased(
      "SELECT cars.code, flights.flnu FROM avis.cars, continental.flights "
      "WHERE cars.code = flights.flnu",
      ctx);
  ASSERT_TRUE(d.ok()) << d.status();
  EXPECT_TRUE(d->cost_based);
  EXPECT_EQ(d->coordinator, "avis");
  const Decomposition::SubQuery* remote = nullptr;
  for (const auto& sub : d->subqueries) {
    if (sub.database == "continental") remote = &sub;
    if (sub.database == "avis") {
      EXPECT_FALSE(sub.semi_join);
    }
  }
  ASSERT_NE(remote, nullptr);
  ASSERT_TRUE(remote->semi_join);
  EXPECT_EQ(remote->key_provider_db, "avis");
  EXPECT_EQ(remote->key_table, "mdbs_key_continental");
  ASSERT_NE(remote->key_select, nullptr);
  std::string key_sql = remote->key_select->ToSql();
  EXPECT_NE(key_sql.find("DISTINCT"), std::string::npos) << key_sql;
  EXPECT_NE(key_sql.find("cars.code"), std::string::npos) << key_sql;
  // The reduced subquery joins against the installed key table.
  std::string reduced = remote->select->ToSql();
  EXPECT_NE(reduced.find("mdbs_key_continental"), std::string::npos)
      << reduced;
  EXPECT_NE(reduced.find("flights.flnu = mdbs_key_continental.k0"),
            std::string::npos)
      << reduced;
  EXPECT_NE(d->cost_text.find("semi-join keys cars.code"),
            std::string::npos)
      << d->cost_text;
}

TEST_F(DecomposerTest, UnqualifiedColumnsResolveWhenUnambiguous) {
  auto d = Decompose(
      "SELECT code, destination FROM avis.cars, continental.flights "
      "WHERE city = destination");
  ASSERT_TRUE(d.ok()) << d.status();
  std::string global = d->global_query->ToSql();
  EXPECT_NE(global.find("cars__code"), std::string::npos);
}

TEST_F(DecomposerTest, AmbiguousUnqualifiedColumnRejected) {
  // 'rate' exists in both databases.
  auto d = Decompose(
      "SELECT rate FROM avis.cars, continental.flights");
  EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(DecomposerTest, UnqualifiedTableRejected) {
  auto d = Decompose("SELECT cars.code FROM cars, continental.flights");
  EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(DecomposerTest, SubqueriesUnsupported) {
  auto d = Decompose(
      "SELECT cars.code FROM avis.cars, continental.flights "
      "WHERE cars.rate = (SELECT MIN(rate) FROM avis.cars)");
  EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument);
  // Subqueries hidden in a BETWEEN bound and in a select-list function.
  for (const char* sql :
       {"SELECT cars.code FROM avis.cars, continental.flights "
        "WHERE cars.rate BETWEEN 0 AND (SELECT MAX(rate) FROM avis.cars)",
        "SELECT ABS((SELECT MIN(rate) FROM avis.cars)) "
        "FROM avis.cars, continental.flights"}) {
    auto hidden = Decompose(sql);
    EXPECT_EQ(hidden.status().code(), StatusCode::kInvalidArgument) << sql;
    EXPECT_NE(hidden.status().message().find("scalar subqueries"),
              std::string::npos)
        << hidden.status();
  }
}

TEST_F(DecomposerTest, StarExpandsToAllShippedColumns) {
  auto d = Decompose("SELECT * FROM avis.cars, continental.f838");
  ASSERT_TRUE(d.ok()) << d.status();
  // 3 cars columns + 2 f838 columns.
  EXPECT_EQ(d->global_query->items.size(), 5u);
}

TEST_F(DecomposerTest, AggregatesComputeGlobally) {
  auto d = Decompose(
      "SELECT COUNT(*), MIN(cars.rate) FROM avis.cars, "
      "continental.flights WHERE cars.city = flights.destination");
  ASSERT_TRUE(d.ok()) << d.status();
  std::string global = d->global_query->ToSql();
  EXPECT_NE(global.find("COUNT(*)"), std::string::npos);
  EXPECT_NE(global.find("MIN(mdbs_tmp_avis.cars__rate)"),
            std::string::npos)
      << global;
}

TEST_F(DecomposerTest, SingleDatabaseRejected) {
  auto d = Decompose(
      "SELECT flights.flnu FROM continental.flights, continental.f838");
  EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(DecomposerTest, AliasedTablesKeepAliases) {
  auto d = Decompose(
      "SELECT c.code FROM avis.cars c, continental.flights f "
      "WHERE c.city = f.destination");
  ASSERT_TRUE(d.ok()) << d.status();
  for (const auto& sub : d->subqueries) {
    if (sub.database == "avis") {
      EXPECT_NE(sub.select->ToSql().find("cars c"), std::string::npos);
      EXPECT_TRUE(sub.temp_schema.HasColumn("c__code"));
    }
  }
}

}  // namespace
}  // namespace msql::lang
