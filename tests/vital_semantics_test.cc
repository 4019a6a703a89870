// Experiment E4 (§3.2): end-to-end vital-set semantics of the 10% fare
// raise across three airlines, under injected failures.
#include <gtest/gtest.h>

#include <memory>

#include "core/fixtures.h"
#include "core/mdbs_system.h"

namespace msql::core {
namespace {

using relational::FailPoint;

constexpr const char* kFareRaise =
    "USE continental VITAL delta united VITAL\n"
    "UPDATE flight% SET rate% = rate% * 1.1\n"
    "WHERE sour% = 'Houston' AND dest% = 'San Antonio'";

class VitalSemanticsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto sys = BuildPaperFederation();
    ASSERT_TRUE(sys.ok()) << sys.status();
    sys_ = std::move(*sys);
  }

  /// Sum of Houston→San Antonio fares on one airline (rate column name
  /// differs per airline — pass the local query).
  double Fares(const std::string& db, const std::string& sql) {
    auto engine = *sys_->GetEngine(PaperServiceOf(db));
    auto s = *engine->OpenSession(db);
    auto rs = engine->Execute(s, sql);
    EXPECT_TRUE(rs.ok()) << rs.status();
    double out = rs->rows[0][0].NumericAsReal();
    EXPECT_TRUE(engine->CloseSession(s).ok());
    return out;
  }

  double ContinentalFares() {
    return Fares("continental",
                 "SELECT SUM(rate) FROM flights WHERE source = 'Houston' "
                 "AND destination = 'San Antonio'");
  }
  double DeltaFares() {
    return Fares("delta",
                 "SELECT SUM(rate) FROM flight WHERE source = 'Houston' "
                 "AND dest = 'San Antonio'");
  }
  double UnitedFares() {
    return Fares("united",
                 "SELECT SUM(rates) FROM flight WHERE sour = 'Houston' "
                 "AND dest = 'San Antonio'");
  }

  std::unique_ptr<MultidatabaseSystem> sys_;
};

TEST_F(VitalSemanticsTest, CleanRunCommitsEverywhere) {
  double cont = ContinentalFares();
  double delta = DeltaFares();
  double united = UnitedFares();
  auto report = sys_->Execute(kFareRaise);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->outcome, GlobalOutcome::kSuccess);
  EXPECT_EQ(report->dol_status, 0);
  EXPECT_NEAR(ContinentalFares(), cont * 1.1, 1e-6);
  EXPECT_NEAR(DeltaFares(), delta * 1.1, 1e-6);
  EXPECT_NEAR(UnitedFares(), united * 1.1, 1e-6);
}

TEST_F(VitalSemanticsTest, VitalFailureRollsBackAllVitals) {
  double cont = ContinentalFares();
  double united = UnitedFares();
  double delta = DeltaFares();
  // United's update fails locally (conflict/deadlock stand-in).
  (*sys_->GetEngine(PaperServiceOf("united")))
      ->InjectFailure(FailPoint::kNextStatement);
  auto report = sys_->Execute(kFareRaise);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->outcome, GlobalOutcome::kAborted);
  EXPECT_EQ(report->dol_status, 1);
  // Continental was prepared, then rolled back. United never applied.
  EXPECT_NEAR(ContinentalFares(), cont, 1e-6);
  EXPECT_NEAR(UnitedFares(), united, 1e-6);
  // Delta is NON VITAL and autocommitted: its update SURVIVES the global
  // abort — exactly the §3.2.1 semantics.
  EXPECT_NEAR(DeltaFares(), delta * 1.1, 1e-6);
}

TEST_F(VitalSemanticsTest, NonVitalFailureDoesNotAffectOutcome) {
  double delta = DeltaFares();
  (*sys_->GetEngine(PaperServiceOf("delta")))
      ->InjectFailure(FailPoint::kNextStatement);
  auto report = sys_->Execute(kFareRaise);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->outcome, GlobalOutcome::kSuccess);
  // Delta unchanged, vitals raised.
  EXPECT_NEAR(DeltaFares(), delta, 1e-6);
}

TEST_F(VitalSemanticsTest, PrepareFailureAborts) {
  double cont = ContinentalFares();
  (*sys_->GetEngine(PaperServiceOf("continental")))
      ->InjectFailure(FailPoint::kNextPrepare);
  auto report = sys_->Execute(kFareRaise);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->outcome, GlobalOutcome::kAborted);
  EXPECT_NEAR(ContinentalFares(), cont, 1e-6);
  EXPECT_NEAR(UnitedFares(), UnitedFares(), 1e-6);
}

TEST_F(VitalSemanticsTest, CommitFailureAfterDecisionIsIncorrect) {
  double cont = ContinentalFares();
  double united = UnitedFares();
  // Both vitals prepare fine; continental's commit then fails — the
  // heuristic hazard: united committed, continental did not.
  (*sys_->GetEngine(PaperServiceOf("continental")))
      ->InjectFailure(FailPoint::kNextCommit);
  auto report = sys_->Execute(kFareRaise);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->outcome, GlobalOutcome::kIncorrect);
  EXPECT_EQ(report->dol_status, 2);
  EXPECT_NEAR(ContinentalFares(), cont, 1e-6);          // rolled back
  EXPECT_NEAR(UnitedFares(), united * 1.1, 1e-6);       // committed
}

TEST_F(VitalSemanticsTest, DownVitalSiteAborts) {
  double cont = ContinentalFares();
  ASSERT_TRUE(
      sys_->environment().network().SetSiteDown("site_united", true).ok());
  auto report = sys_->Execute(kFareRaise);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->outcome, GlobalOutcome::kAborted);
  EXPECT_NEAR(ContinentalFares(), cont, 1e-6);
}

TEST_F(VitalSemanticsTest, DownNonVitalSiteStillSucceeds) {
  ASSERT_TRUE(
      sys_->environment().network().SetSiteDown("site_delta", true).ok());
  auto report = sys_->Execute(kFareRaise);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->outcome, GlobalOutcome::kSuccess);
}

TEST_F(VitalSemanticsTest, AllVitalGivesAtomicTransaction) {
  // "when all databases are VITAL, we have traditional atomic
  // transactions" — one failure rolls everything back.
  double cont = ContinentalFares();
  double delta = DeltaFares();
  double united = UnitedFares();
  (*sys_->GetEngine(PaperServiceOf("delta")))
      ->InjectFailure(FailPoint::kNextStatement);
  auto report = sys_->Execute(
      "USE continental VITAL delta VITAL united VITAL\n"
      "UPDATE flight% SET rate% = rate% * 1.1\n"
      "WHERE sour% = 'Houston' AND dest% = 'San Antonio'");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->outcome, GlobalOutcome::kAborted);
  EXPECT_NEAR(ContinentalFares(), cont, 1e-6);
  EXPECT_NEAR(DeltaFares(), delta, 1e-6);
  EXPECT_NEAR(UnitedFares(), united, 1e-6);
}

TEST_F(VitalSemanticsTest, AllNonVitalAlwaysSucceeds) {
  (*sys_->GetEngine(PaperServiceOf("continental")))
      ->InjectFailure(FailPoint::kNextStatement);
  (*sys_->GetEngine(PaperServiceOf("delta")))
      ->InjectFailure(FailPoint::kNextStatement);
  auto report = sys_->Execute(
      "USE continental delta united\n"
      "UPDATE flight% SET rate% = rate% * 1.1");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->outcome, GlobalOutcome::kSuccess);
}

TEST_F(VitalSemanticsTest, VitalWithNoPertinentSubqueryRefused) {
  auto report = sys_->Execute(
      "USE avis VITAL continental\n"
      "SELECT rate FROM flight%");  // avis has no flight table
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->outcome, GlobalOutcome::kRefused);

  // `delta.flight` names delta only, so the VITAL united has no pertinent
  // subquery: the input is refused before any message is sent.
  const int64_t before = sys_->environment().network().stats().messages_sent;
  auto qualified = sys_->Execute(
      "USE delta VITAL united VITAL\n"
      "UPDATE delta.flight SET dest = dest WHERE dest = 'Nowhere'");
  ASSERT_TRUE(qualified.ok()) << qualified.status();
  EXPECT_EQ(qualified->outcome, GlobalOutcome::kRefused);
  EXPECT_NE(qualified->detail.message().find(
                "VITAL database 'united' has no pertinent subquery"),
            std::string::npos)
      << qualified->detail;
  EXPECT_EQ(qualified->non_pertinent, (std::vector<std::string>{"united"}));
  EXPECT_EQ(sys_->environment().network().stats().messages_sent, before);
}

}  // namespace
}  // namespace msql::core
