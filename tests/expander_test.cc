// Multiple-identifier substitution and disambiguation (§4.3 phases,
// experiment E3).
#include <gtest/gtest.h>

#include "mdbs/global_data_dictionary.h"
#include "msql/expander.h"
#include "msql/parser.h"

namespace msql::lang {
namespace {

using mdbs::GlobalDataDictionary;
using relational::TableSchema;
using relational::Type;

class ExpanderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto add = [&](const std::string& db, const std::string& table,
                   std::vector<relational::ColumnDef> cols) {
      ASSERT_TRUE(gdd_.RegisterDatabase(db, db + "_svc").ok());
      ASSERT_TRUE(
          gdd_.PutTable(db, *TableSchema::Create(table, std::move(cols)))
              .ok());
    };
    add("avis", "cars",
        {{"code", Type::kInteger, 0}, {"cartype", Type::kText, 0},
         {"rate", Type::kReal, 0}, {"carst", Type::kText, 0}});
    add("national", "vehicle",
        {{"vcode", Type::kInteger, 0}, {"vty", Type::kText, 0},
         {"vstat", Type::kText, 0}});
    add("continental", "flights",
        {{"flnu", Type::kInteger, 0}, {"source", Type::kText, 0},
         {"destination", Type::kText, 0}, {"rate", Type::kReal, 0}});
    add("delta", "flight",
        {{"fnu", Type::kInteger, 0}, {"source", Type::kText, 0},
         {"dest", Type::kText, 0}, {"rate", Type::kReal, 0}});
    add("united", "flight",
        {{"fn", Type::kInteger, 0}, {"sour", Type::kText, 0},
         {"dest", Type::kText, 0}, {"rates", Type::kReal, 0}});
  }

  Result<ExpansionResult> Expand(std::string_view msql) {
    auto input = MsqlParser::ParseOne(msql);
    if (!input.ok()) return input.status();
    Expander expander(&gdd_);
    return expander.Expand(*input->query);
  }

  /// SQL of the elementary query for `database` ("" if absent).
  static std::string SqlFor(const ExpansionResult& result,
                            const std::string& database) {
    for (const auto& eq : result.queries) {
      if (eq.effective_name == database) return eq.statement->ToSql();
    }
    return "";
  }

  GlobalDataDictionary gdd_;
};

TEST_F(ExpanderTest, Section2LetWildcardAndOptional) {
  auto result = Expand(
      "USE avis national\n"
      "LET car.type.status BE cars.cartype.carst vehicle.vty.vstat\n"
      "SELECT %code, type, ~rate FROM car WHERE status = 'available'");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->queries.size(), 2u);
  EXPECT_TRUE(result->non_pertinent.empty());
  // avis: everything resolves, rate kept.
  EXPECT_EQ(SqlFor(*result, "avis"),
            "SELECT code AS code, cartype AS type, rate AS rate "
            "FROM cars WHERE carst = 'available'");
  // national: vcode matches %code, rate dropped as optional.
  EXPECT_EQ(SqlFor(*result, "national"),
            "SELECT vcode AS code, vty AS type "
            "FROM vehicle WHERE vstat = 'available'");
}

TEST_F(ExpanderTest, Section32WildcardsAcrossThreeAirlines) {
  auto result = Expand(
      "USE continental VITAL delta united VITAL\n"
      "UPDATE flight% SET rate% = rate% * 1.1\n"
      "WHERE sour% = 'Houston' AND dest% = 'San Antonio'");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->queries.size(), 3u);
  EXPECT_EQ(SqlFor(*result, "continental"),
            "UPDATE flights SET rate = rate * 1.1 WHERE source = 'Houston' "
            "AND destination = 'San Antonio'");
  EXPECT_EQ(SqlFor(*result, "delta"),
            "UPDATE flight SET rate = rate * 1.1 WHERE source = 'Houston' "
            "AND dest = 'San Antonio'");
  EXPECT_EQ(SqlFor(*result, "united"),
            "UPDATE flight SET rates = rates * 1.1 WHERE sour = 'Houston' "
            "AND dest = 'San Antonio'");
  // VITAL designators carried through.
  EXPECT_TRUE(result->queries[0].vital);
  EXPECT_FALSE(result->queries[1].vital);
  EXPECT_TRUE(result->queries[2].vital);
}

TEST_F(ExpanderTest, CompClauseAttachesToDatabase) {
  auto result = Expand(
      "USE continental VITAL united VITAL\n"
      "UPDATE flight% SET rate% = rate% * 1.1\n"
      "COMP continental UPDATE flights SET rate = rate / 1.1");
  ASSERT_TRUE(result.ok()) << result.status();
  const ElementaryQuery* continental = nullptr;
  for (const auto& eq : result->queries) {
    if (eq.database == "continental") continental = &eq;
  }
  ASSERT_NE(continental, nullptr);
  ASSERT_NE(continental->compensation, nullptr);
  EXPECT_EQ(continental->compensation->ToSql(),
            "UPDATE flights SET rate = rate / 1.1");
}

TEST_F(ExpanderTest, CompForUnknownDatabaseRejected) {
  auto result = Expand(
      "USE avis\n"
      "UPDATE cars SET rate = 1.0\n"
      "COMP national UPDATE vehicle SET vstat = 'x'");
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ExpanderTest, NonPertinentDatabaseDiscarded) {
  // avis has no flight-like table: it is discarded, airlines remain.
  auto result = Expand(
      "USE continental avis\n"
      "SELECT rate FROM flight%");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->queries.size(), 1u);
  EXPECT_EQ(result->queries[0].database, "continental");
  EXPECT_EQ(result->non_pertinent, (std::vector<std::string>{"avis"}));

  // A database prefix names that database only: every other scope
  // database is non-pertinent, wherever the prefixed reference sits.
  for (const char* msql :
       {"USE delta united SELECT dest FROM delta.flight",
        "USE delta united INSERT INTO delta.flight (dest) VALUES ('x')",
        "USE delta united SELECT dest FROM flight WHERE dest = "
        "(SELECT MIN(dest) FROM delta.flight)"}) {
    SCOPED_TRACE(msql);
    auto qualified = Expand(msql);
    ASSERT_TRUE(qualified.ok()) << qualified.status();
    ASSERT_EQ(qualified->queries.size(), 1u);
    EXPECT_EQ(qualified->queries[0].database, "delta");
    EXPECT_EQ(qualified->non_pertinent,
              (std::vector<std::string>{"united"}));
  }
  auto select = Expand("USE delta united SELECT dest FROM delta.flight");
  ASSERT_TRUE(select.ok()) << select.status();
  EXPECT_EQ(SqlFor(*select, "delta"),
            "SELECT dest AS dest FROM delta.flight");
}

TEST_F(ExpanderTest, MissingMandatoryColumnDiscardsDatabase) {
  // 'rates' exists only in united; continental/delta are non-pertinent.
  auto result = Expand("USE continental delta united\n"
                       "SELECT rates FROM flight%");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->queries.size(), 1u);
  EXPECT_EQ(result->queries[0].database, "united");
  EXPECT_EQ(result->non_pertinent.size(), 2u);
}

TEST_F(ExpanderTest, AmbiguousSubstitutionRejected) {
  // In avis, 'car%' matches both cartype and carst: two pertinent
  // substitutions survive disambiguation.
  auto result = Expand("USE avis SELECT car% FROM cars");
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("ambiguous"),
            std::string::npos);
}

TEST_F(ExpanderTest, ConsistentSubstitutionForRepeatedIdentifier) {
  // rate% appears twice; both occurrences must resolve to the same
  // column within each elementary query (rates in united).
  auto result = Expand(
      "USE united UPDATE flight SET rate% = rate% + 1");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(SqlFor(*result, "united"),
            "UPDATE flight SET rates = rates + 1");
}

TEST_F(ExpanderTest, OptionalColumnOutsideSelectListRejected) {
  auto result = Expand(
      "USE national SELECT vcode, ~rate FROM vehicle WHERE rate > 1");
  // 'rate' in WHERE is mandatory and missing → national non-pertinent →
  // the whole query is pertinent nowhere.
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->queries.empty());
  EXPECT_EQ(result->non_pertinent,
            (std::vector<std::string>{"national"}));
}

TEST_F(ExpanderTest, AllSelectItemsDroppedMakesNonPertinent) {
  auto result = Expand("USE national SELECT ~rate FROM vehicle");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->queries.empty());
}

TEST_F(ExpanderTest, SubqueryIdentifiersExpandToo) {
  auto result = Expand(
      "USE delta\n"
      "UPDATE flight SET rate = rate * 2 WHERE fnu = "
      "(SELECT MIN(fnu) FROM flight WHERE source = 'Houston')");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NE(SqlFor(*result, "delta").find("SELECT MIN(fnu) FROM flight"),
            std::string::npos);
}

TEST_F(ExpanderTest, LetTableVariableInSubquery) {
  // The §3.4 reservation pattern: the LET table variable appears both as
  // update target and inside the scalar subquery.
  auto result = Expand(
      "USE continental delta\n"
      "LET ftab.num.src BE flights.flnu.source flight.fnu.source\n"
      "UPDATE ftab SET rate = 0 WHERE num = "
      "(SELECT MIN(num) FROM ftab WHERE src = 'Houston')");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->queries.size(), 2u);
  EXPECT_EQ(SqlFor(*result, "continental"),
            "UPDATE flights SET rate = 0 WHERE flnu = "
            "(SELECT MIN(flnu) FROM flights WHERE source = 'Houston')");
  EXPECT_EQ(SqlFor(*result, "delta"),
            "UPDATE flight SET rate = 0 WHERE fnu = "
            "(SELECT MIN(fnu) FROM flight WHERE source = 'Houston')");
}

TEST_F(ExpanderTest, DuplicateScopeNamesRejected) {
  EXPECT_EQ(Expand("USE avis avis SELECT code FROM cars").status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ExpanderTest, AliasesMakeDuplicatesLegal) {
  auto result = Expand(
      "USE (avis a1) (avis a2) SELECT code FROM cars");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->queries.size(), 2u);
  EXPECT_EQ(result->queries[0].effective_name, "a1");
  EXPECT_EQ(result->queries[1].effective_name, "a2");
  EXPECT_EQ(result->queries[0].database, "avis");
}

TEST_F(ExpanderTest, UnknownDatabaseFails) {
  EXPECT_EQ(Expand("USE ghost SELECT a FROM t").status().code(),
            StatusCode::kNotFound);
}

TEST_F(ExpanderTest, DdlReplicatedVerbatim) {
  auto create = Expand(
      "USE avis national CREATE TABLE bookings (bid INTEGER, who TEXT)");
  ASSERT_TRUE(create.ok()) << create.status();
  ASSERT_EQ(create->queries.size(), 2u);
  EXPECT_EQ(create->queries[0].statement->ToSql(),
            "CREATE TABLE bookings (bid INTEGER, who TEXT)");

  // DROP is pertinent only where the GDD knows the table.
  auto drop = Expand("USE avis national DROP TABLE cars");
  ASSERT_TRUE(drop.ok());
  ASSERT_EQ(drop->queries.size(), 1u);
  EXPECT_EQ(drop->queries[0].database, "avis");
  EXPECT_EQ(drop->non_pertinent, (std::vector<std::string>{"national"}));
}

TEST_F(ExpanderTest, SemanticAliasRules) {
  EXPECT_EQ(SemanticAlias("%code"), "code");
  EXPECT_EQ(SemanticAlias("flight%"), "flight");
  EXPECT_EQ(SemanticAlias("%"), "col");
  EXPECT_EQ(SemanticAlias("plain"), "plain");
}

TEST_F(ExpanderTest, CollectIdentifiersSeesAllDepths) {
  auto input = MsqlParser::ParseOne(
      "USE delta UPDATE flight SET rate = rate + 1 WHERE fnu = "
      "(SELECT MIN(fnu) FROM flight2 WHERE x = 1)");
  ASSERT_TRUE(input.ok());
  NameInventory inventory;
  ASSERT_TRUE(CollectIdentifiers(*input->query->body, &inventory));
  const auto& tables = inventory.tables;
  const auto& columns = inventory.columns;
  EXPECT_TRUE(tables.count("flight"));
  EXPECT_TRUE(tables.count("flight2"));
  EXPECT_TRUE(columns.count("rate"));
  EXPECT_TRUE(columns.count("fnu"));
  EXPECT_TRUE(columns.count("x"));

  // Columns reachable only through a unary operand, BETWEEN's bounds, an
  // IN list, a function argument and a scalar subquery inside an IN list.
  auto nested = MsqlParser::ParseOne(
      "USE delta SELECT ~opt, ~fnu FROM flight\n"
      "WHERE -neg > 0 AND fnu BETWEEN lo AND hi\n"
      "AND dest IN ('x', item, (SELECT MAX(deep) FROM flight3))\n"
      "AND UPPER(arg) = 'Y' AND hi > 0");
  ASSERT_TRUE(nested.ok()) << nested.status();
  NameInventory names;
  ASSERT_TRUE(CollectIdentifiers(*nested->query->body, &names));
  std::vector<std::string> column_names;
  for (const auto& [name, column] : names.columns) {
    column_names.push_back(name);
  }
  EXPECT_EQ(column_names,
            (std::vector<std::string>{"arg", "deep", "dest", "fnu", "hi",
                                      "item", "lo", "neg", "opt"}));
  EXPECT_TRUE(names.columns.at("opt").optional);
  EXPECT_FALSE(names.columns.at("fnu").optional);  // also bare in WHERE
  EXPECT_FALSE(names.columns.at("deep").optional);
  EXPECT_EQ(names.columns.at("hi").line, 2);  // BETWEEN's hi, not line 4
  EXPECT_EQ(names.columns.at("hi").column, 39);
  EXPECT_TRUE(names.tables.count("flight3"));
  EXPECT_TRUE(names.databases.empty());
}

}  // namespace
}  // namespace msql::lang
