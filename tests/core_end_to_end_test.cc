// End-to-end pipeline tests (experiments E1 and E3): catalog bootstrap
// through MSQL text to multitables, joins, scope persistence and DDL.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "core/fixtures.h"
#include "core/mdbs_system.h"

namespace msql::core {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto sys = BuildPaperFederation();
    ASSERT_TRUE(sys.ok()) << sys.status();
    sys_ = std::move(*sys);
  }

  ExecutionReport Exec(const std::string& msql) {
    auto report = sys_->Execute(msql);
    EXPECT_TRUE(report.ok()) << msql << " -> " << report.status();
    return report.ok() ? std::move(*report) : ExecutionReport{};
  }

  std::unique_ptr<MultidatabaseSystem> sys_;
};

TEST_F(EndToEndTest, Section2CarRentalMultitable) {
  auto report = Exec(
      "USE avis national\n"
      "LET car.type.status BE cars.cartype.carst vehicle.vty.vstat\n"
      "SELECT %code, type, ~rate FROM car WHERE status = 'available'");
  EXPECT_EQ(report.outcome, GlobalOutcome::kSuccess);
  ASSERT_EQ(report.multitable.size(), 2u);
  const auto* avis = report.multitable.Find("avis");
  const auto* national = report.multitable.Find("national");
  ASSERT_NE(avis, nullptr);
  ASSERT_NE(national, nullptr);
  // avis keeps the optional rate column, national loses it.
  EXPECT_EQ(avis->table.columns,
            (std::vector<std::string>{"code", "type", "rate"}));
  EXPECT_EQ(national->table.columns,
            (std::vector<std::string>{"code", "type"}));
  EXPECT_GT(avis->table.rows.size(), 0u);
  EXPECT_GT(national->table.rows.size(), 0u);
}

TEST_F(EndToEndTest, CatalogIsQueryableState) {
  // Fixture ran INCORPORATE + IMPORT through the MSQL front end; the AD
  // and GDD must reflect it.
  EXPECT_TRUE(sys_->auxiliary_directory().HasService("avis_svc"));
  EXPECT_TRUE(sys_->gdd().HasTable("continental", "flights"));
  EXPECT_TRUE(sys_->gdd().HasTable("continental", "f838"));
  EXPECT_EQ(sys_->gdd().DatabaseNames().size(), 5u);
  auto svc = sys_->auxiliary_directory().GetService("delta_svc");
  ASSERT_TRUE(svc.ok());
  EXPECT_TRUE((*svc)->SupportsTwoPhaseCommit());
}

TEST_F(EndToEndTest, ScopePersistsAcrossQueries) {
  ASSERT_EQ(Exec("USE avis SELECT code FROM cars").outcome,
            GlobalOutcome::kSuccess);
  // No USE: inherits the avis scope.
  auto second = Exec("SELECT cartype FROM cars");
  EXPECT_EQ(second.outcome, GlobalOutcome::kSuccess);
  ASSERT_EQ(second.multitable.size(), 1u);
  EXPECT_EQ(second.multitable.elements[0].database, "avis");
  // USE CURRENT extends rather than replaces.
  auto third = Exec(
      "USE CURRENT national\n"
      "LET car.code BE cars.code vehicle.vcode\n"
      "SELECT code FROM car");
  EXPECT_EQ(third.multitable.size(), 2u);
}

TEST_F(EndToEndTest, QueryWithoutScopeFails) {
  MultidatabaseSystem fresh;
  auto report = fresh.Execute("SELECT a FROM t");
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(EndToEndTest, MultidatabaseJoinThroughCoordinator) {
  // Cross-database join: which avis cars and continental flights share a
  // rate? Exercises decomposition + TRANSFER + global query Q'.
  auto report = Exec(
      "USE avis continental\n"
      "SELECT cars.code, flights.flnu "
      "FROM avis.cars, continental.flights "
      "WHERE cars.rate < flights.rate AND cars.carst = 'available'");
  EXPECT_EQ(report.outcome, GlobalOutcome::kSuccess);
  EXPECT_TRUE(report.is_join);
  EXPECT_EQ(report.join_result.columns,
            (std::vector<std::string>{"code", "flnu"}));
  EXPECT_GT(report.join_result.rows.size(), 0u);
  // Temporary tables were dropped at the coordinator.
  auto engine = *sys_->GetEngine(PaperServiceOf("continental"));
  auto db = engine->GetDatabaseConst("continental");
  ASSERT_TRUE(db.ok());
  EXPECT_FALSE((*db)->HasTable("mdbs_tmp_avis"));
  EXPECT_FALSE((*db)->HasTable("mdbs_tmp_continental"));
}

TEST_F(EndToEndTest, JoinResultMatchesManualComputation) {
  auto report = Exec(
      "USE avis continental\n"
      "SELECT COUNT(*) FROM avis.cars, continental.flights "
      "WHERE cars.rate < flights.rate");
  ASSERT_EQ(report.join_result.rows.size(), 1u);
  // Manual: every car rate is < every flight rate in the fixture?
  // Compute both sides locally and cross-check.
  auto avis_engine = *sys_->GetEngine(PaperServiceOf("avis"));
  auto cont_engine = *sys_->GetEngine(PaperServiceOf("continental"));
  auto s1 = *avis_engine->OpenSession("avis");
  auto s2 = *cont_engine->OpenSession("continental");
  auto cars = *avis_engine->Execute(s1, "SELECT rate FROM cars");
  auto flights = *cont_engine->Execute(s2, "SELECT rate FROM flights");
  int64_t expected = 0;
  for (const auto& c : cars.rows) {
    for (const auto& f : flights.rows) {
      if (!c[0].is_null() && !f[0].is_null() &&
          c[0].NumericAsReal() < f[0].NumericAsReal()) {
        ++expected;
      }
    }
  }
  EXPECT_EQ(report.join_result.rows[0][0].AsInteger(), expected);
}

TEST_F(EndToEndTest, RealValuesKeepEveryDigitBetweenSites) {
  // Two rates that agree to six significant digits. The decomposed join
  // ships one site's rows to the other as SQL literals, so the literals
  // must carry the exact values or the join compares rounded copies.
  ASSERT_EQ(Exec("USE continental\n"
                 "UPDATE flights SET rate = 1234568.2 WHERE flnu = 107")
                .outcome,
            GlobalOutcome::kSuccess);
  ASSERT_EQ(Exec("USE delta\n"
                 "UPDATE flight SET rate = 1234567.89 WHERE fnu = 100")
                .outcome,
            GlobalOutcome::kSuccess);
  auto equal = Exec(
      "USE continental delta\n"
      "SELECT flights.flnu, flight.fnu "
      "FROM continental.flights, delta.flight "
      "WHERE flights.rate = flight.rate AND flight.rate > 1000000");
  EXPECT_EQ(equal.outcome, GlobalOutcome::kSuccess);
  EXPECT_TRUE(equal.join_result.rows.empty());
  auto less = Exec(
      "USE continental delta\n"
      "SELECT flights.flnu, flight.fnu "
      "FROM continental.flights, delta.flight "
      "WHERE flight.rate < flights.rate AND flight.rate > 1000000");
  EXPECT_EQ(less.outcome, GlobalOutcome::kSuccess);
  ASSERT_EQ(less.join_result.rows.size(), 1u);
  EXPECT_EQ(less.join_result.rows[0][0].AsInteger(), 107);
  EXPECT_EQ(less.join_result.rows[0][1].AsInteger(), 100);
}

TEST_F(EndToEndTest, SubnormalRealShipsAsALiteralTheTargetCanRead) {
  // A site can compute and store a subnormal REAL; the decomposed join
  // ships it to the other site as a literal, whose lexer must read it
  // back (it used to abort the process).
  ASSERT_EQ(Exec("USE avis\n"
                 "UPDATE cars SET rate = rate / 1e300 / 1e20 WHERE code = 1")
                .outcome,
            GlobalOutcome::kSuccess);
  auto avis_engine = *sys_->GetEngine(PaperServiceOf("avis"));
  auto cont_engine = *sys_->GetEngine(PaperServiceOf("continental"));
  auto s1 = *avis_engine->OpenSession("avis");
  auto s2 = *cont_engine->OpenSession("continental");
  auto cars = *avis_engine->Execute(s1, "SELECT code, rate FROM cars");
  auto flights = *cont_engine->Execute(s2, "SELECT flnu, rate FROM flights");
  std::vector<relational::Row> expected;
  bool saw_subnormal = false;
  for (const auto& c : cars.rows) {
    if (c[1].is_null()) continue;
    const double rate = c[1].NumericAsReal();
    saw_subnormal |= rate != 0.0 && std::fpclassify(rate) == FP_SUBNORMAL;
    for (const auto& f : flights.rows) {
      if (!f[1].is_null() && rate < f[1].NumericAsReal()) {
        expected.push_back({c[0], f[0]});
      }
    }
  }
  ASSERT_TRUE(saw_subnormal);
  auto join = Exec(
      "USE avis continental\n"
      "SELECT cars.code, flights.flnu FROM avis.cars, continental.flights "
      "WHERE cars.rate < flights.rate");
  EXPECT_EQ(join.outcome, GlobalOutcome::kSuccess) << join.detail;
  const auto by_pair = [](const relational::Row& a,
                          const relational::Row& b) {
    const int c = a[0].Compare(b[0]);
    return c != 0 ? c < 0 : a[1].Compare(b[1]) < 0;
  };
  std::vector<relational::Row> got = join.join_result.rows;
  std::sort(got.begin(), got.end(), by_pair);
  std::sort(expected.begin(), expected.end(), by_pair);
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(got, expected);
}

TEST_F(EndToEndTest, MultidatabaseDdlCreatesEverywhereAndSyncsGdd) {
  auto report = Exec(
      "USE avis national CREATE TABLE bookings (bid INTEGER, who TEXT)");
  EXPECT_EQ(report.outcome, GlobalOutcome::kSuccess);
  // Both local engines have the table.
  for (const char* db : {"avis", "national"}) {
    auto engine = *sys_->GetEngine(PaperServiceOf(db));
    auto database = engine->GetDatabaseConst(db);
    ASSERT_TRUE(database.ok());
    EXPECT_TRUE((*database)->HasTable("bookings")) << db;
    EXPECT_TRUE(sys_->gdd().HasTable(db, "bookings")) << db;
  }
  // The new table is immediately usable by multiple queries.
  auto insert = Exec(
      "USE avis national INSERT INTO bookings VALUES (1, 'kim')");
  EXPECT_EQ(insert.outcome, GlobalOutcome::kSuccess);
  auto select = Exec("USE avis national SELECT who FROM bookings");
  EXPECT_EQ(select.multitable.size(), 2u);
  // DROP removes from engines and GDD.
  auto drop = Exec("USE avis national DROP TABLE bookings");
  EXPECT_EQ(drop.outcome, GlobalOutcome::kSuccess);
  EXPECT_FALSE(sys_->gdd().HasTable("avis", "bookings"));
}

// A database is the LDBS's own business: an MSQL body that would
// create or drop one fails at parse, before any DOL program runs, so
// no §3.2 outcome can be reported over work no transaction covered.
TEST_F(EndToEndTest, DatabaseStatementsFailAtParse) {
  obs::MetricsRegistry& metrics = sys_->environment().metrics();
  metrics.set_enabled(true);
  auto national = *sys_->GetEngine("national_svc");
  national->InjectFailure(relational::FailPoint::kNextPrepare);
  const int64_t messages =
      sys_->environment().network().stats().messages_sent;
  for (const char* input :
       {"USE avis DROP DATABASE avis",
        "USE avis VITAL national VITAL CREATE DATABASE foo"}) {
    auto report = sys_->Execute(input);
    EXPECT_EQ(report.status().code(), StatusCode::kParseError) << input;
  }
  EXPECT_EQ(metrics.Get("dol.runs"), 0);
  EXPECT_EQ(sys_->environment().network().stats().messages_sent, messages);
  national->InjectFailure(relational::FailPoint::kNone);

  EXPECT_TRUE(sys_->gdd().HasTable("avis", "cars"));
  auto avis = *sys_->GetEngine("avis_svc");
  EXPECT_EQ(avis->GetDatabaseConst("foo").status().code(),
            StatusCode::kNotFound);
  auto cars = Exec("USE avis SELECT code FROM cars");
  EXPECT_EQ(cars.outcome, GlobalOutcome::kSuccess);
  EXPECT_TRUE(cars.degraded_services.empty());
  EXPECT_EQ(metrics.Get("dol.runs"), 1);
}

TEST_F(EndToEndTest, ScriptExecution) {
  auto reports = sys_->ExecuteScript(
      "USE avis SELECT code FROM cars;\n"
      "USE national SELECT vcode FROM vehicle");
  ASSERT_TRUE(reports.ok()) << reports.status();
  ASSERT_EQ(reports->size(), 2u);
  EXPECT_EQ((*reports)[0].outcome, GlobalOutcome::kSuccess);
  EXPECT_EQ((*reports)[1].outcome, GlobalOutcome::kSuccess);
}

TEST_F(EndToEndTest, ImportSingleTableLimitsVisibility) {
  MultidatabaseSystem fresh;
  fresh.environment().network().set_default_link({});
  ASSERT_TRUE(fresh.AddService("svc", "site1",
                               relational::CapabilityProfile::IngresLike())
                  .ok());
  auto engine = *fresh.GetEngine("svc");
  ASSERT_TRUE(engine->CreateDatabase("d").ok());
  ASSERT_TRUE(fresh.RunLocalSql("svc", "d",
                                "CREATE TABLE a (x INTEGER);"
                                "CREATE TABLE b (y INTEGER);"
                                "INSERT INTO a VALUES (1)")
                  .ok());
  ASSERT_TRUE(fresh.Execute("INCORPORATE SERVICE svc SITE site1 "
                            "CONNECTMODE CONNECT COMMITMODE NOCOMMIT "
                            "CREATE NOCOMMIT INSERT NOCOMMIT DROP NOCOMMIT")
                  .ok());
  ASSERT_TRUE(
      fresh.Execute("IMPORT DATABASE d FROM SERVICE svc TABLE a").ok());
  // Table b exists locally but is invisible at the multidatabase level.
  auto visible = fresh.Execute("USE d SELECT x FROM a");
  ASSERT_TRUE(visible.ok()) << visible.status();
  EXPECT_EQ(visible->outcome, GlobalOutcome::kSuccess);
  // b is not in the GDD → d is non-pertinent → no subquery anywhere,
  // which the translator reports as an error (pertinent on no database).
  auto hidden = fresh.Execute("USE d SELECT y FROM b");
  EXPECT_FALSE(hidden.ok());
  EXPECT_EQ(hidden.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(EndToEndTest, ReportCarriesDolProgramAndTiming) {
  auto report = Exec("USE avis SELECT code FROM cars");
  EXPECT_NE(report.dol_text.find("DOLBEGIN"), std::string::npos);
  EXPECT_NE(report.dol_text.find("TASK t_avis"), std::string::npos);
  EXPECT_GT(report.run.makespan_micros, 0);
  EXPECT_GT(report.run.messages, 0);
}

TEST_F(EndToEndTest, RetrievalOnDownNonVitalSiteYieldsPartialMultitable) {
  ASSERT_TRUE(
      sys_->environment().network().SetSiteDown("site_national", true).ok());
  auto report = Exec(
      "USE avis national\n"
      "LET car.code BE cars.code vehicle.vcode\n"
      "SELECT code FROM car");
  EXPECT_EQ(report.outcome, GlobalOutcome::kSuccess);
  ASSERT_EQ(report.multitable.size(), 1u);
  EXPECT_EQ(report.multitable.elements[0].database, "avis");
}

}  // namespace
}  // namespace msql::core
