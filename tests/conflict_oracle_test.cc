// Differential oracle for the static conflict analyzer (DESIGN.md §13):
// randomized mixed workloads run through the federation server with the
// per-service lock managers' audit trails armed, then every *runtime*
// concurrency event is checked against the *static* prediction:
//
//   - soundness: every observed waits-for edge (session parked behind
//     another) joins two sessions whose summaries Classify() as
//     contended, and every deadlock victim was parked behind a session
//     its summary carries a predicted lock-order inversion against;
//   - superset: every table lock a service actually granted (S/X, from
//     the LockManager audit log) is covered by some admitted session's
//     predicted access set with the same or stronger mode;
//   - scheduling: with conflict_aware admission on, the same workload
//     commits the same seats exactly once with no more deadlock victims
//     than the baseline, and the deferral counters show the avoided
//     pairs;
//   - admission query: ConflictGraph's WouldRiskDeadlock, which skips
//     Classify's resource keys, gives Classify's deadlock verdict on
//     every pair of the workload's summaries.
//
// Each session's prediction is its input's MultidatabaseSystem::Analyze
// summary (the msql_lint --conflicts path): the server builds summaries
// only for conflict-aware admission and reports none.
#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/conflict_analyzer.h"
#include "common/rng.h"
#include "core/fixtures.h"
#include "core/mdbs_system.h"
#include "core/session_scheduler.h"
#include "relational/txn.h"

namespace msql::core {
namespace {

using analysis::AccessSummary;
using analysis::Classify;
using analysis::ConflictKind;
using analysis::PredictedMode;
using analysis::ResourcesOverlap;
using analysis::TaskAccess;

std::string SeatMt(const std::string& client) {
  return "BEGIN MULTITRANSACTION\n"
         "USE continental delta\n"
         "LET fitab.snu.sstat.clname BE\n"
         "  f838.seatnu.seatstatus.clientname\n"
         "  fnu747.snu.sstat.passname\n"
         "UPDATE fitab SET sstat = 'TAKEN', clname = '" +
         client +
         "'\n"
         "WHERE snu = (SELECT MIN(snu) FROM fitab WHERE sstat = 'FREE');\n"
         "COMMIT\n"
         "  continental AND delta\n"
         "END MULTITRANSACTION";
}

std::string OrderedSeatMt(bool continental_first,
                          const std::string& client) {
  std::string continental =
      "USE continental\n"
      "UPDATE f838 SET seatstatus = 'TAKEN', clientname = '" +
      client +
      "'\n"
      "WHERE seatnu = (SELECT MIN(seatnu) FROM f838 "
      "WHERE seatstatus = 'FREE');\n";
  std::string delta =
      "USE delta\n"
      "UPDATE fnu747 SET sstat = 'TAKEN', passname = '" + client +
      "'\n"
      "WHERE snu = (SELECT MIN(snu) FROM fnu747 WHERE sstat = 'FREE');\n";
  return "BEGIN MULTITRANSACTION\n" +
         (continental_first ? continental + delta : delta + continental) +
         "COMMIT\n"
         "  continental AND delta\n"
         "END MULTITRANSACTION";
}

int64_t Count(MultidatabaseSystem& sys, const std::string& db,
              const std::string& sql) {
  auto engine = *sys.GetEngine(PaperServiceOf(db));
  auto session = *engine->OpenSession(db);
  auto rs = engine->Execute(session, sql);
  EXPECT_TRUE(rs.ok()) << rs.status();
  int64_t out = rs.ok() ? rs->rows[0][0].AsInteger() : 0;
  EXPECT_TRUE(engine->CloseSession(session).ok());
  return out;
}

int64_t TakenOn(MultidatabaseSystem& sys) {
  return Count(sys, "continental",
               "SELECT COUNT(*) FROM f838 WHERE seatstatus = 'TAKEN'");
}

int64_t TakenDelta(MultidatabaseSystem& sys) {
  return Count(sys, "delta",
               "SELECT COUNT(*) FROM fnu747 WHERE sstat = 'TAKEN'");
}

std::string Lower(std::string text) {
  for (char& c : text) c = static_cast<char>(std::tolower(c));
  return text;
}

/// The randomized mixed workload: seat multitransactions in either
/// lock order plus read-only queries, in submit order.
struct Workload {
  std::vector<std::string> texts;
  std::vector<bool> is_seat_mt;
};

Workload MakeWorkload(uint64_t seed, int sessions, bool conflict_aware) {
  Workload workload;
  Rng rng(seed);
  for (int i = 0; i < sessions; ++i) {
    const std::string client = "o" + std::to_string(seed) + "_" +
                               std::to_string(i) +
                               (conflict_aware ? "a" : "b");
    const double roll = rng.NextDouble();
    if (roll < 0.5) {
      workload.texts.push_back(SeatMt(client));
      workload.is_seat_mt.push_back(true);
    } else if (roll < 0.75) {
      workload.texts.push_back(OrderedSeatMt(rng.NextBool(0.5), client));
      workload.is_seat_mt.push_back(true);
    } else {
      workload.texts.push_back("USE continental\nSELECT flnu FROM flights");
      workload.is_seat_mt.push_back(false);
    }
  }
  return workload;
}

/// Each input's predicted footprint as Analyze reports it (null for an
/// input without a plan).
std::vector<std::shared_ptr<const AccessSummary>> AnalyzeAll(
    MultidatabaseSystem& sys, const std::vector<std::string>& texts) {
  std::vector<std::shared_ptr<const AccessSummary>> out;
  for (const std::string& text : texts) {
    auto report = sys.Analyze(text);
    EXPECT_TRUE(report.ok()) << report.status();
    out.push_back(report.ok() && report->summary.has_value()
                      ? std::make_shared<const AccessSummary>(
                            *std::move(report->summary))
                      : nullptr);
  }
  return out;
}

struct OracleRun {
  std::unique_ptr<MultidatabaseSystem> sys;
  std::vector<SessionResult> results;
  /// Per-session predicted footprint, indexed like `results`.
  std::vector<std::shared_ptr<const AccessSummary>> summaries;
  std::vector<bool> is_seat_mt;
  /// Per-service (resource, mode) grants from the lock audit trail.
  std::map<std::string,
           std::vector<std::pair<std::string, relational::LockManager::Mode>>>
      audited;
  int64_t base_cont = 0;
  int64_t base_delta = 0;
  int64_t makespan = 0;
  int deadlock_victims = 0;
  int64_t lock_waits = 0;
  int64_t deferrals = 0;
  int64_t avoided = 0;
};

OracleRun RunAuditedWorkload(uint64_t seed, int sessions,
                             bool conflict_aware) {
  OracleRun run;
  PaperFederationOptions options;
  options.seats_per_airline = 2 * sessions;
  auto built = BuildPaperFederation(options);
  EXPECT_TRUE(built.ok()) << built.status();
  if (!built.ok()) return run;
  run.sys = std::move(*built);
  run.base_cont = TakenOn(*run.sys);
  run.base_delta = TakenDelta(*run.sys);
  for (const auto& name : run.sys->environment().ServiceNames()) {
    auto lam = *run.sys->environment().GetLam(name);
    lam->engine()->lock_manager().set_audit(true);
  }

  ServerConfig config;
  config.conflict_aware = conflict_aware;
  FederationServer server(run.sys.get(), config);
  Workload workload = MakeWorkload(seed, sessions, conflict_aware);
  for (const std::string& text : workload.texts) server.Submit(text);
  run.is_seat_mt = std::move(workload.is_seat_mt);
  auto results = server.RunAll();
  EXPECT_TRUE(results.ok()) << results.status();
  if (!results.ok()) return run;
  run.results = std::move(*results);
  run.makespan = server.virtual_now();
  run.summaries = AnalyzeAll(*run.sys, workload.texts);
  for (const SessionResult& r : run.results) {
    run.lock_waits += r.lock_waits;
    run.deferrals += r.admission_deferrals;
    run.avoided += r.avoided_deadlocks;
    if (r.deadlock_victim) ++run.deadlock_victims;
  }
  for (const auto& name : run.sys->environment().ServiceNames()) {
    auto lam = *run.sys->environment().GetLam(name);
    run.audited[name] = lam->engine()->lock_manager().audit_log();
    lam->engine()->lock_manager().set_audit(false);
  }
  return run;
}

/// Soundness: runtime waits-for edges and deadlock victims were all
/// statically predicted by the pairwise classifier.
void CheckPredictionsCoverRuntime(const OracleRun& run) {
  ASSERT_EQ(run.summaries.size(), run.results.size());
  for (size_t i = 0; i < run.results.size(); ++i) {
    const SessionResult& r = run.results[i];
    if (r.observed_blockers.empty()) continue;
    const AccessSummary* mine = run.summaries[i].get();
    ASSERT_NE(mine, nullptr)
        << "session " << r.session_id << " parked without a summary";
    bool victim_edge_predicted = false;
    for (uint64_t blocker : r.observed_blockers) {
      ASSERT_GE(blocker, 1u);
      ASSERT_LE(blocker, run.results.size());
      const AccessSummary* other = run.summaries[blocker - 1].get();
      ASSERT_NE(other, nullptr)
          << "blocker " << blocker << " has no summary";
      auto conflict = Classify(*mine, *other);
      EXPECT_NE(conflict.kind, ConflictKind::kNone)
          << "session " << r.session_id << " waited for " << blocker
          << " but the analyzer classified the pair conflict-free";
      victim_edge_predicted |= conflict.deadlock_risk;
    }
    if (r.deadlock_victim) {
      EXPECT_TRUE(victim_edge_predicted)
          << "session " << r.session_id
          << " was a deadlock victim but no observed blocker carried a "
             "predicted lock-order inversion";
    }
  }
}

/// Superset: every granted table lock appears in some session's
/// predicted access set with the same or stronger mode.
void CheckPredictionsCoverGrants(const OracleRun& run) {
  using Mode = relational::LockManager::Mode;
  std::map<std::string, std::vector<const TaskAccess*>> predicted;
  for (const auto& summary : run.summaries) {
    if (!summary) continue;
    for (const TaskAccess& access : summary->accesses) {
      predicted[access.service].push_back(&access);
    }
  }
  for (const auto& [service, grants] : run.audited) {
    for (const auto& [resource, mode] : grants) {
      // Locks are flat: every grant is an S or X on one "db.table".
      const size_t dot = resource.find('.');
      EXPECT_TRUE(dot != std::string::npos && dot > 0 &&
                  dot + 1 < resource.size())
          << "service " << service << " granted a lock on '" << resource
          << "', which is not a table";
      const std::string key = Lower(resource);
      bool covered = false;
      for (const TaskAccess* access : predicted[service]) {
        if (!ResourcesOverlap(access->resource, key)) continue;
        if (mode == Mode::kExclusive &&
            access->mode != PredictedMode::kExclusive) {
          continue;
        }
        covered = true;
        break;
      }
      EXPECT_TRUE(covered)
          << "service " << service << " granted "
          << (mode == Mode::kExclusive ? "X" : "S") << " on " << resource
          << ", which no session's predicted access set covers";
    }
  }
}

/// Exactly-once seat accounting, as in the stress suite.
void CheckSeatAccounting(const OracleRun& run) {
  int64_t committed_mts = 0;
  int64_t partial_mts = 0;
  for (size_t i = 0; i < run.results.size(); ++i) {
    const SessionResult& r = run.results[i];
    ASSERT_TRUE(r.report.has_value() || !r.status.ok())
        << "session " << r.session_id << " has neither report nor error";
    if (!r.report.has_value() || !run.is_seat_mt[i]) continue;
    if (r.report->outcome == GlobalOutcome::kSuccess) ++committed_mts;
    if (r.report->outcome == GlobalOutcome::kIncorrect) ++partial_mts;
  }
  EXPECT_EQ(partial_mts, 0);
  EXPECT_EQ(TakenOn(*run.sys) - run.base_cont, committed_mts);
  EXPECT_EQ(TakenDelta(*run.sys) - run.base_delta, committed_mts);
}

class ConflictOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConflictOracleTest, RuntimeConflictsAreStaticallyPredicted) {
  OracleRun run = RunAuditedWorkload(GetParam(), 80,
                                     /*conflict_aware=*/false);
  ASSERT_FALSE(run.results.empty());
  // The workload must actually contend, or the oracle checks nothing.
  EXPECT_GT(run.lock_waits, 0);
  CheckPredictionsCoverRuntime(run);
  CheckPredictionsCoverGrants(run);
  CheckSeatAccounting(run);
}

TEST_P(ConflictOracleTest, ConflictAwareAdmissionAvoidsPredictedDeadlocks) {
  OracleRun baseline = RunAuditedWorkload(GetParam(), 80,
                                          /*conflict_aware=*/false);
  OracleRun aware = RunAuditedWorkload(GetParam(), 80,
                                       /*conflict_aware=*/true);
  ASSERT_FALSE(baseline.results.empty());
  ASSERT_FALSE(aware.results.empty());
  // The predictions stay sound under the altered admission order...
  CheckPredictionsCoverRuntime(aware);
  CheckPredictionsCoverGrants(aware);
  // ...the work still happens exactly once...
  CheckSeatAccounting(aware);
  // ...and the deadlocks the analyzer predicted were scheduled around
  // instead of suffered.
  EXPECT_LE(aware.deadlock_victims, baseline.deadlock_victims);
  EXPECT_GT(aware.deferrals, 0);
  EXPECT_GT(aware.avoided, 0);
  for (const SessionResult& r : aware.results) {
    EXPECT_FALSE(r.deadlock_victim && r.avoided_deadlocks > 0)
        << "session " << r.session_id
        << " was deferred for safety yet still became a victim";
  }
}

TEST_P(ConflictOracleTest, AdmissionQueriesAgreeWithClassify) {
  // The scheduler's admission query skips Classify's resource keys but
  // must give its verdict: WouldRiskDeadlock flags a peer exactly when
  // the pair carries the deadlock signature and the peer is not
  // quiesced.
  auto built = BuildPaperFederation();
  ASSERT_TRUE(built.ok()) << built.status();
  std::vector<std::shared_ptr<const AccessSummary>> summaries;
  for (auto& summary : AnalyzeAll(
           **built, MakeWorkload(GetParam(), 80, /*conflict_aware=*/true)
                        .texts)) {
    if (summary) summaries.push_back(std::move(summary));
  }
  ASSERT_FALSE(summaries.empty());
  const std::vector<uint64_t> peer = {7};
  int64_t none = 0;
  int64_t contended = 0;
  int64_t risky = 0;
  for (const auto& candidate : summaries) {
    for (const auto& admitted : summaries) {
      const analysis::PairwiseConflict verdict =
          Classify(*candidate, *admitted);
      const bool contends = verdict.kind != ConflictKind::kNone;
      none += contends ? 0 : 1;
      contended += contends ? 1 : 0;
      risky += verdict.deadlock_risk ? 1 : 0;
      analysis::ConflictGraph graph;
      graph.Admit(peer[0], admitted);
      std::vector<uint64_t> against;
      EXPECT_EQ(graph.WouldRiskDeadlock(*candidate, &against),
                verdict.deadlock_risk);
      EXPECT_EQ(against, verdict.deadlock_risk ? peer
                                               : std::vector<uint64_t>{});
      graph.Quiesce(peer[0]);
      EXPECT_FALSE(graph.WouldRiskDeadlock(*candidate));
    }
  }
  // The workload yields every verdict, so each branch was compared.
  EXPECT_GT(none, 0);
  EXPECT_GT(contended, risky);
  EXPECT_GT(risky, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConflictOracleTest,
                         ::testing::Values(7u, 21u, 1993u));

}  // namespace
}  // namespace msql::core
