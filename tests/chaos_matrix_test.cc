// Chaos matrix over the §3.2 fare raise: every cell of
// {OPEN, EXECUTE, PREPARE, COMMIT-ACK} × {VITAL, NON-VITAL} ×
// {retry off, retry on} pins its exact GlobalOutcome. The only cell
// allowed to end kIncorrect is a post-prepare fault the coordinator is
// forbidden to resolve (lost commit ACK with re-probing disabled);
// with the retry policy on, the same fault resolves to kSuccess through
// a kQueryTxnState re-probe.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/fixtures.h"
#include "core/mdbs_system.h"
#include "dol/engine.h"
#include "netsim/fault_injector.h"

namespace msql::core {
namespace {

using dol::RetryPolicy;
using netsim::FaultAction;
using netsim::FaultPlan;
using netsim::FaultRule;
using netsim::LamRequestType;

constexpr const char* kFareRaise =
    "USE continental VITAL delta united VITAL\n"
    "UPDATE flight% SET rate% = rate% * 1.1\n"
    "WHERE sour% = 'Houston' AND dest% = 'San Antonio'";

// The VITAL fault target is united (2PC participant), the NON-VITAL
// target is delta (autocommitted subquery).
constexpr const char* kVitalSvc = "united_svc";
constexpr const char* kNonVitalSvc = "delta_svc";

class ChaosMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto sys = BuildPaperFederation();
    ASSERT_TRUE(sys.ok()) << sys.status();
    sys_ = std::move(*sys);
    cont_before_ = ContinentalFares();
    delta_before_ = DeltaFares();
    united_before_ = UnitedFares();
  }

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

  ExecutionReport RunCell(const FaultPlan& plan, RetryPolicy policy) {
    sys_->set_retry_policy(policy);
    sys_->environment().fault_injector().SetPlan(plan);
    auto report = sys_->Execute(kFareRaise);
    EXPECT_TRUE(report.ok()) << report.status();
    return report.ok() ? *report : ExecutionReport{};
  }

  void ExpectVitalsUnchanged() {
    EXPECT_NEAR(ContinentalFares(), cont_before_, 1e-6);
    EXPECT_NEAR(UnitedFares(), united_before_, 1e-6);
  }
  void ExpectVitalsRaised() {
    EXPECT_NEAR(ContinentalFares(), cont_before_ * 1.1, 1e-6);
    EXPECT_NEAR(UnitedFares(), united_before_ * 1.1, 1e-6);
  }
  bool Degraded(const ExecutionReport& report, const std::string& svc) {
    for (const auto& s : report.degraded_services) {
      if (s == svc) return true;
    }
    return false;
  }

  // A two-call outage window: retry-off runs hit it once and fail;
  // retry-on runs (3 attempts) ride it out.
  static FaultPlan Outage(const std::string& svc, LamRequestType verb) {
    FaultPlan plan;
    plan.rules.push_back(FaultRule::Transient(svc, verb, /*k=*/2));
    return plan;
  }
  static FaultPlan LostAck(const std::string& svc, LamRequestType verb) {
    FaultPlan plan;
    plan.rules.push_back(
        FaultRule::NthCall(svc, verb, 1, FaultAction::kLostResponse));
    return plan;
  }
  static FaultPlan LostRequest(const std::string& svc,
                               LamRequestType verb) {
    FaultPlan plan;
    plan.rules.push_back(
        FaultRule::NthCall(svc, verb, 1, FaultAction::kLostRequest));
    return plan;
  }

  std::unique_ptr<MultidatabaseSystem> sys_;
  double cont_before_ = 0;
  double delta_before_ = 0;
  double united_before_ = 0;
};

// -- VITAL column -----------------------------------------------------------

TEST_F(ChaosMatrixTest, VitalOpenFaultNoRetryAborts) {
  auto report = RunCell(Outage(kVitalSvc, LamRequestType::kOpenSession),
                        RetryPolicy::None());
  EXPECT_EQ(report.outcome, GlobalOutcome::kAborted);
  EXPECT_EQ(report.dol_status, 1);
  ExpectVitalsUnchanged();
  // Satellite: the poisoned channel is no longer silent.
  ASSERT_EQ(report.run.failed_channels.size(), 1u);
  EXPECT_NE(report.run.ToString().find("OPEN FAILED"), std::string::npos);
}

TEST_F(ChaosMatrixTest, VitalOpenFaultWithRetrySucceeds) {
  auto report = RunCell(Outage(kVitalSvc, LamRequestType::kOpenSession),
                        RetryPolicy::WithAttempts(3));
  EXPECT_EQ(report.outcome, GlobalOutcome::kSuccess);
  EXPECT_GE(report.run.retries, 2);
  ExpectVitalsRaised();
  EXPECT_NEAR(DeltaFares(), delta_before_ * 1.1, 1e-6);
}

TEST_F(ChaosMatrixTest, VitalExecuteFaultNoRetryAborts) {
  auto report = RunCell(Outage(kVitalSvc, LamRequestType::kExecute),
                        RetryPolicy::None());
  EXPECT_EQ(report.outcome, GlobalOutcome::kAborted);
  ExpectVitalsUnchanged();
}

TEST_F(ChaosMatrixTest, VitalExecuteFaultWithRetrySucceeds) {
  auto report = RunCell(Outage(kVitalSvc, LamRequestType::kExecute),
                        RetryPolicy::WithAttempts(3));
  EXPECT_EQ(report.outcome, GlobalOutcome::kSuccess);
  EXPECT_GE(report.run.retries, 2);
  ExpectVitalsRaised();
}

TEST_F(ChaosMatrixTest, VitalPrepareFaultNoRetryAborts) {
  auto report = RunCell(Outage(kVitalSvc, LamRequestType::kPrepare),
                        RetryPolicy::None());
  EXPECT_EQ(report.outcome, GlobalOutcome::kAborted);
  ExpectVitalsUnchanged();
}

TEST_F(ChaosMatrixTest, VitalPrepareFaultWithRetrySucceeds) {
  auto report = RunCell(Outage(kVitalSvc, LamRequestType::kPrepare),
                        RetryPolicy::WithAttempts(3));
  EXPECT_EQ(report.outcome, GlobalOutcome::kSuccess);
  EXPECT_GE(report.run.retries, 2);
  ExpectVitalsRaised();
}

TEST_F(ChaosMatrixTest, VitalLostCommitAckNoReprobeIsIncorrect) {
  // The genuinely unresolvable cell: united's commit was applied but
  // the ACK vanished, and the coordinator is not allowed to re-probe.
  // It must assume the worst, and since the other vital committed, the
  // execution is (correctly) declared incorrect.
  auto report = RunCell(LostAck(kVitalSvc, LamRequestType::kCommit),
                        RetryPolicy::None());
  EXPECT_EQ(report.outcome, GlobalOutcome::kIncorrect);
  EXPECT_EQ(report.dol_status, 2);
  // Ground truth: both vitals actually committed — the declared state
  // diverged from reality, which is exactly what kIncorrect flags.
  ExpectVitalsRaised();
}

TEST_F(ChaosMatrixTest, VitalLostCommitAckResolvedByReprobe) {
  // The headline recovery: the same lost ACK, but the policy re-probes
  // the transaction state (kQueryTxnState), observes kCommitted, and
  // the run ends a clean success instead of kIncorrect.
  auto report = RunCell(LostAck(kVitalSvc, LamRequestType::kCommit),
                        RetryPolicy::WithAttempts(3));
  EXPECT_EQ(report.outcome, GlobalOutcome::kSuccess);
  EXPECT_EQ(report.dol_status, 0);
  EXPECT_GE(report.run.reprobes, 1);
  ExpectVitalsRaised();
  EXPECT_NEAR(DeltaFares(), delta_before_ * 1.1, 1e-6);
}

// -- NON-VITAL column -------------------------------------------------------

TEST_F(ChaosMatrixTest, NonVitalOpenFaultNoRetryDegradesOnly) {
  auto report = RunCell(Outage(kNonVitalSvc, LamRequestType::kOpenSession),
                        RetryPolicy::None());
  EXPECT_EQ(report.outcome, GlobalOutcome::kSuccess);
  ExpectVitalsRaised();
  EXPECT_NEAR(DeltaFares(), delta_before_, 1e-6);  // left out of the raise
  EXPECT_TRUE(Degraded(report, kNonVitalSvc));
  EXPECT_FALSE(report.detail.ok());  // degradation is reported...
  EXPECT_EQ(report.dol_status, 0);   // ...but the outcome is untouched
  EXPECT_EQ(report.run.failed_channels.size(), 1u);
}

TEST_F(ChaosMatrixTest, NonVitalOpenFaultWithRetryHeals) {
  auto report = RunCell(Outage(kNonVitalSvc, LamRequestType::kOpenSession),
                        RetryPolicy::WithAttempts(3));
  EXPECT_EQ(report.outcome, GlobalOutcome::kSuccess);
  EXPECT_TRUE(report.detail.ok()) << report.detail;
  EXPECT_TRUE(report.degraded_services.empty());
  ExpectVitalsRaised();
  EXPECT_NEAR(DeltaFares(), delta_before_ * 1.1, 1e-6);
}

TEST_F(ChaosMatrixTest, NonVitalExecuteFaultNoRetryDegradesOnly) {
  auto report = RunCell(Outage(kNonVitalSvc, LamRequestType::kExecute),
                        RetryPolicy::None());
  EXPECT_EQ(report.outcome, GlobalOutcome::kSuccess);
  ExpectVitalsRaised();
  EXPECT_NEAR(DeltaFares(), delta_before_, 1e-6);
  EXPECT_TRUE(Degraded(report, kNonVitalSvc));
}

TEST_F(ChaosMatrixTest, NonVitalExecuteFaultWithRetryHeals) {
  auto report = RunCell(Outage(kNonVitalSvc, LamRequestType::kExecute),
                        RetryPolicy::WithAttempts(3));
  EXPECT_EQ(report.outcome, GlobalOutcome::kSuccess);
  EXPECT_TRUE(report.degraded_services.empty());
  ExpectVitalsRaised();
  EXPECT_NEAR(DeltaFares(), delta_before_ * 1.1, 1e-6);
}

TEST_F(ChaosMatrixTest, NonVitalLostUpdateRequestDegradesEitherWay) {
  // Delta is autocommitted, so its "pre-commit" fault is the update
  // request vanishing. A timed-out kExecute may have been applied, so
  // the policy must NOT blindly re-send it — with retries on or off the
  // subquery is reported lost and the global outcome stays kSuccess.
  for (RetryPolicy policy :
       {RetryPolicy::None(), RetryPolicy::WithAttempts(3)}) {
    SetUp();
    auto report = RunCell(
        LostRequest(kNonVitalSvc, LamRequestType::kExecute), policy);
    EXPECT_EQ(report.outcome, GlobalOutcome::kSuccess);
    ExpectVitalsRaised();
    EXPECT_NEAR(DeltaFares(), delta_before_, 1e-6);
    EXPECT_TRUE(Degraded(report, kNonVitalSvc));
    EXPECT_EQ(report.run.retries, 0);  // no blind re-send
  }
}

TEST_F(ChaosMatrixTest, NonVitalLostCommitAckNeverChangesOutcome) {
  // The autocommit ACK vanishes after delta applied the update: the
  // coordinator honestly reports the subquery lost (degraded) — it has
  // no oracle — but the §3.2.1 outcome is decided by the vitals alone.
  auto report = RunCell(LostAck(kNonVitalSvc, LamRequestType::kExecute),
                        RetryPolicy::WithAttempts(3));
  EXPECT_EQ(report.outcome, GlobalOutcome::kSuccess);
  ExpectVitalsRaised();
  // Ground truth: the update WAS committed locally.
  EXPECT_NEAR(DeltaFares(), delta_before_ * 1.1, 1e-6);
  EXPECT_TRUE(Degraded(report, kNonVitalSvc));
}

// -- Cross-cutting ----------------------------------------------------------

TEST_F(ChaosMatrixTest, RetryAndBackoffShowUpInMakespan) {
  auto clean = sys_->Execute(kFareRaise);
  ASSERT_TRUE(clean.ok()) << clean.status();
  ASSERT_EQ(clean->outcome, GlobalOutcome::kSuccess);

  SetUp();  // fresh federation, same data
  auto faulted = RunCell(Outage(kVitalSvc, LamRequestType::kExecute),
                         RetryPolicy::WithAttempts(3));
  ASSERT_EQ(faulted.outcome, GlobalOutcome::kSuccess);
  // Two rejected sends plus two backoff waits are charged to the clock.
  EXPECT_GT(faulted.run.makespan_micros, clean->run.makespan_micros);
  EXPECT_EQ(faulted.run.retries, 2);
}

TEST_F(ChaosMatrixTest, IdenticalSeedsProduceIdenticalTraces) {
  FaultPlan plan;
  plan.seed = 4242;
  plan.rules.push_back(FaultRule::Random("", std::nullopt, /*p=*/0.15));
  plan.rules.back().count = -1;

  auto report_a = RunCell(plan, RetryPolicy::WithAttempts(3));
  std::string trace_a = report_a.run.ToString();

  SetUp();  // identical federation (fixture seed is fixed)
  auto report_b = RunCell(plan, RetryPolicy::WithAttempts(3));
  EXPECT_EQ(report_b.run.ToString(), trace_a);
  EXPECT_EQ(report_b.outcome, report_a.outcome);
  EXPECT_EQ(report_b.run.retries, report_a.run.retries);
  EXPECT_EQ(report_b.run.reprobes, report_a.run.reprobes);
}

}  // namespace
}  // namespace msql::core
