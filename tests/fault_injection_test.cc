// FaultInjector scheduling semantics and their integration with the
// simulated Environment: Nth-call triggers, transient recovery windows,
// seeded reproducibility, and the delivered/undelivered distinction
// between rejects, lost requests and lost responses.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "netsim/environment.h"
#include "netsim/fault_injector.h"
#include "netsim/lam.h"
#include "relational/engine.h"

namespace msql::netsim {
namespace {

using relational::CapabilityProfile;
using relational::LocalEngine;

TEST(FaultPlanTest, NthCallFiresExactlyOnce) {
  FaultInjector injector;
  FaultPlan plan;
  plan.rules.push_back(FaultRule::NthCall(
      "svc", LamRequestType::kPrepare, 2, FaultAction::kReject));
  injector.SetPlan(plan);

  // Other verbs never match the rule.
  EXPECT_EQ(injector.Decide("svc", LamRequestType::kExecute).action,
            FaultAction::kNone);
  // First prepare passes, second faults, third and later pass again.
  EXPECT_EQ(injector.Decide("svc", LamRequestType::kPrepare).action,
            FaultAction::kNone);
  FaultDecision second = injector.Decide("svc", LamRequestType::kPrepare);
  EXPECT_EQ(second.action, FaultAction::kReject);
  EXPECT_EQ(second.rule_index, 0);
  EXPECT_EQ(injector.Decide("svc", LamRequestType::kPrepare).action,
            FaultAction::kNone);
  EXPECT_EQ(injector.rule_fire_counts()[0], 1);
  EXPECT_EQ(injector.stats().faults_fired, 1);
}

TEST(FaultPlanTest, OtherServicesDoNotMatch) {
  FaultInjector injector;
  FaultPlan plan;
  plan.rules.push_back(FaultRule::NthCall(
      "svc_a", LamRequestType::kCommit, 1, FaultAction::kLostResponse));
  injector.SetPlan(plan);
  EXPECT_EQ(injector.Decide("svc_b", LamRequestType::kCommit).action,
            FaultAction::kNone);
  EXPECT_EQ(injector.Decide("svc_a", LamRequestType::kCommit).action,
            FaultAction::kLostResponse);
}

TEST(FaultPlanTest, TransientWindowRecovers) {
  FaultInjector injector;
  FaultPlan plan;
  plan.rules.push_back(
      FaultRule::Transient("svc", LamRequestType::kExecute, 3));
  injector.SetPlan(plan);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(injector.Decide("svc", LamRequestType::kExecute).action,
              FaultAction::kReject)
        << "call " << i;
  }
  // The outage window is over: the service has recovered.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(injector.Decide("svc", LamRequestType::kExecute).action,
              FaultAction::kNone);
  }
  EXPECT_EQ(injector.rule_fire_counts()[0], 3);
}

TEST(FaultPlanTest, WildcardServiceAndVerbMatchEverything) {
  FaultInjector injector;
  FaultPlan plan;
  FaultRule any = FaultRule::Transient("", std::nullopt, /*k=*/-1);
  any.count = -1;  // forever
  plan.rules.push_back(any);
  injector.SetPlan(plan);
  EXPECT_EQ(injector.Decide("alpha", LamRequestType::kPing).action,
            FaultAction::kReject);
  EXPECT_EQ(injector.Decide("beta", LamRequestType::kCommit).action,
            FaultAction::kReject);
  EXPECT_EQ(injector.Decide("gamma", LamRequestType::kExecute).action,
            FaultAction::kReject);
  EXPECT_EQ(injector.stats().faults_fired, 3);
}

TEST(FaultPlanTest, RuleOrdinalsAdvanceEvenWhenEarlierRuleFires) {
  // Rule windows are positions in the *matching call stream*, not in the
  // fault-free stream: rule B's 2nd-call window must fire on the second
  // call even though rule A consumed the first.
  FaultInjector injector;
  FaultPlan plan;
  plan.rules.push_back(
      FaultRule::NthCall("svc", std::nullopt, 1, FaultAction::kReject));
  plan.rules.push_back(FaultRule::NthCall("svc", std::nullopt, 2,
                                          FaultAction::kLostRequest));
  injector.SetPlan(plan);
  EXPECT_EQ(injector.Decide("svc", LamRequestType::kPing).action,
            FaultAction::kReject);
  EXPECT_EQ(injector.Decide("svc", LamRequestType::kPing).action,
            FaultAction::kLostRequest);
  EXPECT_EQ(injector.Decide("svc", LamRequestType::kPing).action,
            FaultAction::kNone);
}

TEST(FaultPlanTest, SeededRandomnessIsReproducible) {
  FaultPlan plan;
  plan.seed = 20260807;
  plan.rules.push_back(
      FaultRule::Random("svc", std::nullopt, /*p=*/0.4));
  plan.rules.back().count = -1;

  auto run = [&plan]() {
    FaultInjector injector;
    injector.SetPlan(plan);
    std::vector<FaultAction> decisions;
    for (int i = 0; i < 200; ++i) {
      decisions.push_back(
          injector.Decide("svc", LamRequestType::kExecute).action);
    }
    return decisions;
  };

  std::vector<FaultAction> first = run();
  std::vector<FaultAction> second = run();
  EXPECT_EQ(first, second);
  // p = 0.4 over 200 draws: some but not all calls fault.
  int fired = 0;
  for (FaultAction a : first) fired += (a != FaultAction::kNone);
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 200);

  // A different seed reshuffles the schedule.
  FaultPlan other = plan;
  other.seed = 99;
  FaultInjector injector;
  injector.SetPlan(other);
  std::vector<FaultAction> third;
  for (int i = 0; i < 200; ++i) {
    third.push_back(injector.Decide("svc", LamRequestType::kExecute).action);
  }
  EXPECT_NE(first, third);
}

TEST(FaultPlanTest, ClearStopsInjection) {
  FaultInjector injector;
  FaultPlan plan;
  plan.rules.push_back(
      FaultRule::Transient("svc", std::nullopt, /*k=*/100));
  injector.SetPlan(plan);
  EXPECT_TRUE(injector.active());
  EXPECT_EQ(injector.Decide("svc", LamRequestType::kPing).action,
            FaultAction::kReject);
  injector.Clear();
  EXPECT_FALSE(injector.active());
  EXPECT_EQ(injector.Decide("svc", LamRequestType::kPing).action,
            FaultAction::kNone);
}

// -- Environment integration -----------------------------------------------

std::unique_ptr<LocalEngine> SeededEngine() {
  auto engine = std::make_unique<LocalEngine>(
      "svc", CapabilityProfile::IngresLike());
  EXPECT_TRUE(engine->CreateDatabase("db").ok());
  auto s = *engine->OpenSession("db");
  EXPECT_TRUE(
      engine->Execute(s, "CREATE TABLE t (id INTEGER, v TEXT)").ok());
  EXPECT_TRUE(
      engine->Execute(s, "INSERT INTO t VALUES (1, 'a'), (2, 'b')").ok());
  EXPECT_TRUE(engine->CloseSession(s).ok());
  return engine;
}

class EnvironmentFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LinkParams link;
    link.latency_micros = 500;
    link.micros_per_kb = 0;
    env_.network().set_default_link(link);
    ASSERT_TRUE(env_.AddService("svc", "site1", SeededEngine()).ok());
    LamRequest open;
    open.type = LamRequestType::kOpenSession;
    open.database = "db";
    auto opened = env_.Call("svc", open, 0);
    ASSERT_TRUE(opened.ok());
    session_ = opened->response.session;
  }

  int64_t RowCount() {
    LamRequest count;
    count.type = LamRequestType::kExecute;
    count.session = session_;
    count.sql = "SELECT COUNT(*) FROM t";
    auto outcome = env_.Call("svc", count, 0);
    EXPECT_TRUE(outcome.ok());
    EXPECT_TRUE(outcome->response.status.ok());
    return outcome->response.result.rows[0][0].AsInteger();
  }

  Environment env_;
  relational::SessionId session_ = 0;
};

TEST_F(EnvironmentFaultTest, RejectIsImmediateAndUndelivered) {
  FaultPlan plan;
  plan.rules.push_back(FaultRule::NthCall(
      "svc", LamRequestType::kExecute, 1, FaultAction::kReject));
  env_.fault_injector().SetPlan(plan);

  LamRequest del;
  del.type = LamRequestType::kExecute;
  del.session = session_;
  del.sql = "DELETE FROM t WHERE id = 1";
  auto outcome = env_.Call("svc", del, 1000);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->response.status.code(), StatusCode::kUnavailable);
  // A reject is a definite answer, not a timeout: the caller learns
  // quickly (one round trip) and knows the request never ran.
  EXPECT_FALSE(outcome->timed_out);
  EXPECT_FALSE(outcome->request_delivered);
  EXPECT_EQ(outcome->timing.end_micros, 1000 + 500 + 500);
  EXPECT_EQ(RowCount(), 2);
}

TEST_F(EnvironmentFaultTest, LostRequestTimesOutWithoutExecuting) {
  FaultPlan plan;
  plan.rules.push_back(FaultRule::NthCall(
      "svc", LamRequestType::kExecute, 1, FaultAction::kLostRequest));
  env_.fault_injector().SetPlan(plan);

  LamRequest del;
  del.type = LamRequestType::kExecute;
  del.session = session_;
  del.sql = "DELETE FROM t WHERE id = 1";
  auto outcome = env_.Call("svc", del, 2000);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->response.status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(outcome->timed_out);
  EXPECT_FALSE(outcome->request_delivered);
  EXPECT_EQ(outcome->timing.end_micros,
            2000 + Environment::kCallTimeoutMicros);
  // The request vanished before the LDBMS: no state change.
  EXPECT_EQ(RowCount(), 2);
}

TEST_F(EnvironmentFaultTest, LostResponseExecutesButTimesOut) {
  FaultPlan plan;
  plan.rules.push_back(FaultRule::NthCall(
      "svc", LamRequestType::kExecute, 1, FaultAction::kLostResponse));
  env_.fault_injector().SetPlan(plan);

  LamRequest del;
  del.type = LamRequestType::kExecute;
  del.session = session_;
  del.sql = "DELETE FROM t WHERE id = 1";
  auto outcome = env_.Call("svc", del, 0);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->response.status.code(), StatusCode::kUnavailable);
  // To the coordinator this is the same timeout as a lost request...
  EXPECT_TRUE(outcome->timed_out);
  EXPECT_EQ(outcome->timing.end_micros, Environment::kCallTimeoutMicros);
  // ...but the ground truth differs: the delete actually ran.
  EXPECT_TRUE(outcome->request_delivered);
  EXPECT_EQ(RowCount(), 1);
}

TEST_F(EnvironmentFaultTest, LatencySpikeSlowsTheRequestLeg) {
  auto clean = env_.Call(
      "svc", LamRequest{LamRequestType::kPing, "", 0, ""}, 0);
  ASSERT_TRUE(clean.ok());

  FaultPlan plan;
  FaultRule spike = FaultRule::Spike("svc", 7000);
  spike.count = -1;
  plan.rules.push_back(spike);
  env_.fault_injector().SetPlan(plan);

  auto slowed = env_.Call(
      "svc", LamRequest{LamRequestType::kPing, "", 0, ""}, 0);
  ASSERT_TRUE(slowed.ok());
  EXPECT_TRUE(slowed->response.status.ok());
  EXPECT_EQ(slowed->timing.request_micros,
            clean->timing.request_micros + 7000);
  EXPECT_EQ(slowed->timing.end_micros, clean->timing.end_micros + 7000);
}

TEST_F(EnvironmentFaultTest, StatsAccumulateAcrossCalls) {
  FaultPlan plan;
  plan.rules.push_back(FaultRule::NthCall(
      "svc", LamRequestType::kPing, 1, FaultAction::kReject));
  plan.rules.push_back(FaultRule::NthCall(
      "svc", LamRequestType::kPing, 2, FaultAction::kLostRequest));
  plan.rules.push_back(FaultRule::NthCall(
      "svc", LamRequestType::kPing, 3, FaultAction::kLostResponse));
  env_.fault_injector().SetPlan(plan);

  LamRequest ping{LamRequestType::kPing, "", 0, ""};
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(env_.Call("svc", ping, 0).ok());

  const FaultStats& stats = env_.fault_injector().stats();
  EXPECT_EQ(stats.calls_seen, 4);
  EXPECT_EQ(stats.faults_fired, 3);
  EXPECT_EQ(stats.rejects, 1);
  EXPECT_EQ(stats.lost_requests, 1);
  EXPECT_EQ(stats.lost_responses, 1);
  EXPECT_EQ(stats.latency_spikes, 0);
}

}  // namespace
}  // namespace msql::netsim
