// Differential tests for the cost-based distributed optimizer: on every
// seed and query, the cost-based path (statistics catalog + transfer
// cost model + semi-join movement) must return exactly the answer the
// provable paper-heuristic fallback returns. The fallback stays
// reachable through MultidatabaseSystem::set_cost_based_optimizer(false)
// and is exercised here as the oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/fixtures.h"
#include "core/mdbs_system.h"
#include "netsim/fault_injector.h"

namespace msql::core {
namespace {

/// Rows of a join answer as a sorted multiset of display strings —
/// coordinator-side evaluation order is not part of the contract.
std::vector<std::string> SortedRows(const relational::ResultSet& rs) {
  std::vector<std::string> out;
  for (const auto& row : rs.rows) {
    std::string line;
    for (const auto& v : row) line += v.ToDisplayString() + "|";
    out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// One random multidatabase join over the paper federation's schemas.
std::string RandomJoinQuery(Rng* rng) {
  auto rate_literal = [&] {
    return std::to_string(rng->NextInRange(50, 400));
  };
  switch (rng->NextBelow(4)) {
    case 0: {
      std::string q =
          "USE avis continental\n"
          "SELECT cars.code, flights.flnu "
          "FROM avis.cars, continental.flights "
          "WHERE cars.rate ";
      q += rng->NextBool(0.5) ? "=" : "<";
      q += " flights.rate";
      if (rng->NextBool(0.5)) q += " AND cars.carst = 'available'";
      if (rng->NextBool(0.5)) q += " AND flights.rate < " + rate_literal();
      return q;
    }
    case 1: {
      std::string q =
          "USE avis delta\n"
          "SELECT cars.code, flight.fnu FROM avis.cars, delta.flight "
          "WHERE cars.rate ";
      q += rng->NextBool(0.5) ? "=" : "<";
      q += " flight.rate";
      if (rng->NextBool(0.5)) q += " AND cars.rate > " + rate_literal();
      return q;
    }
    case 2: {
      std::string q =
          "USE continental delta\n"
          "SELECT flights.flnu, flight.fnu "
          "FROM continental.flights, delta.flight "
          "WHERE flights.rate = flight.rate";
      if (rng->NextBool(0.5)) q += " AND flight.rate < " + rate_literal();
      return q;
    }
    default:
      return "USE avis continental delta\n"
             "SELECT COUNT(*) FROM avis.cars, continental.flights, "
             "delta.flight WHERE cars.rate < flights.rate "
             "AND flights.rate = flight.rate";
  }
}

TEST(DistOptDiffTest, CostBasedAgreesWithHeuristicFallbackAcrossSeeds) {
  for (uint64_t seed : {7u, 21u, 1993u}) {
    PaperFederationOptions options;
    options.seed = seed;
    auto cost_sys = BuildPaperFederation(options);
    auto heur_sys = BuildPaperFederation(options);
    ASSERT_TRUE(cost_sys.ok()) << cost_sys.status();
    ASSERT_TRUE(heur_sys.ok()) << heur_sys.status();
    ASSERT_TRUE((*cost_sys)->cost_based_optimizer());  // on by default
    (*heur_sys)->set_cost_based_optimizer(false);
    for (const char* db :
         {"continental", "delta", "united", "avis", "national"}) {
      auto analyzed =
          (*cost_sys)->Execute("ANALYZE DATABASE " + std::string(db));
      ASSERT_TRUE(analyzed.ok()) << db << " -> " << analyzed.status();
    }

    Rng rng(seed);
    for (int q = 0; q < 8; ++q) {
      std::string sql = RandomJoinQuery(&rng);
      auto cost = (*cost_sys)->Execute(sql);
      auto heur = (*heur_sys)->Execute(sql);
      ASSERT_EQ(cost.ok(), heur.ok())
          << "seed " << seed << ": " << sql << "\ncost: " << cost.status()
          << "\nheuristic: " << heur.status();
      if (!cost.ok()) continue;
      EXPECT_EQ(cost->outcome, heur->outcome) << "seed " << seed << ": "
                                              << sql;
      EXPECT_EQ(cost->join_result.columns, heur->join_result.columns);
      EXPECT_EQ(SortedRows(cost->join_result),
                SortedRows(heur->join_result))
          << "seed " << seed << ": " << sql;
      // The cost breakdown travels with the report only on the
      // cost-based path, and ANALYZE has run for every table.
      EXPECT_NE(cost->cost_text.find("mode=cost-based"), std::string::npos)
          << sql << "\n" << cost->cost_text;
      EXPECT_TRUE(heur->cost_text.empty()) << heur->cost_text;
    }
  }
}

TEST(DistOptDiffTest, WithoutAnalyzeCostModeFallsBackPerQuery) {
  // Cost-based mode is on by default but statistics do not exist until
  // ANALYZE runs, so the very first join must take (and report) the
  // heuristic fallback — behavior-identical to the paper path.
  auto sys = BuildPaperFederation();
  ASSERT_TRUE(sys.ok()) << sys.status();
  auto report = (*sys)->Execute(
      "USE avis continental\n"
      "SELECT cars.code, flights.flnu FROM avis.cars, continental.flights "
      "WHERE cars.rate < flights.rate");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->outcome, GlobalOutcome::kSuccess);
  EXPECT_NE(report->cost_text.find("mode=heuristic"), std::string::npos)
      << report->cost_text;
  EXPECT_NE(report->cost_text.find("run ANALYZE"), std::string::npos);

  // After ANALYZE the same query reports a costed plan.
  ASSERT_TRUE((*sys)->Execute("ANALYZE DATABASE avis").ok());
  ASSERT_TRUE((*sys)->Execute("ANALYZE DATABASE continental").ok());
  auto costed = (*sys)->Execute(
      "USE avis continental\n"
      "SELECT cars.code, flights.flnu FROM avis.cars, continental.flights "
      "WHERE cars.rate < flights.rate");
  ASSERT_TRUE(costed.ok()) << costed.status();
  EXPECT_NE(costed->cost_text.find("mode=cost-based"), std::string::npos)
      << costed->cost_text;
  EXPECT_EQ(SortedRows(report->join_result), SortedRows(costed->join_result));
}

TEST(DistOptDiffTest, CommittedWriteChurnReengagesHeuristicUntilReanalyze) {
  auto sys = BuildPaperFederation();
  ASSERT_TRUE(sys.ok()) << sys.status();
  ASSERT_TRUE((*sys)->Execute("ANALYZE DATABASE avis").ok());
  ASSERT_TRUE((*sys)->Execute("ANALYZE DATABASE continental").ok());
  const std::string sql =
      "USE avis continental\n"
      "SELECT cars.code, flights.flnu FROM avis.cars, continental.flights "
      "WHERE cars.rate < flights.rate";
  auto fresh = (*sys)->Execute(sql);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_NE(fresh->cost_text.find("mode=cost-based"), std::string::npos)
      << fresh->cost_text;

  // With a tight churn budget, one committed DML batch over avis.cars
  // (4 rows) pushes its stats past max(floor=1, 0.2 × row_count) and the
  // optimizer must stop trusting them.
  (*sys)->gdd().set_stats_churn_limit(0.2, 1);
  auto dml = (*sys)->Execute("USE avis UPDATE cars SET rate = rate * 1.01");
  ASSERT_TRUE(dml.ok()) << dml.status();
  ASSERT_EQ(dml->outcome, GlobalOutcome::kSuccess);
  EXPECT_FALSE((*sys)->gdd().TableStatsFresh("avis", "cars"));

  auto stale = (*sys)->Execute(sql);
  ASSERT_TRUE(stale.ok()) << stale.status();
  EXPECT_NE(stale->cost_text.find("mode=heuristic"), std::string::npos)
      << stale->cost_text;
  EXPECT_NE(stale->cost_text.find("run ANALYZE"), std::string::npos)
      << stale->cost_text;
  // The fallback is a planning decision only — answers still agree.
  EXPECT_EQ(SortedRows(stale->join_result), SortedRows(fresh->join_result));

  // Re-ANALYZE resets the churn counters and re-engages the cost model.
  ASSERT_TRUE((*sys)->Execute("ANALYZE DATABASE avis").ok());
  EXPECT_TRUE((*sys)->gdd().TableStatsFresh("avis", "cars"));
  auto again = (*sys)->Execute(sql);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_NE(again->cost_text.find("mode=cost-based"), std::string::npos)
      << again->cost_text;
  EXPECT_EQ(SortedRows(again->join_result), SortedRows(fresh->join_result));
}

constexpr char kCarsFlightsJoin[] =
    "USE avis continental\n"
    "SELECT cars.code, flights.flnu FROM avis.cars, continental.flights "
    "WHERE cars.rate < flights.rate";

/// The join's rows with every `cars.code` of `from` replaced by `to`
/// (or dropped when `to` is NULL), as SortedRows renders them.
std::vector<std::string> Recoded(const relational::ResultSet& rs,
                                 int64_t from, const relational::Value& to) {
  relational::ResultSet out;
  for (const auto& row : rs.rows) {
    if (row[0] != relational::Value::Integer(from)) {
      out.rows.push_back(row);
    } else if (!to.is_null()) {
      out.rows.push_back({to, row[1]});
    }
  }
  return SortedRows(out);
}

TEST(DistOptDiffTest, ValuesWithoutAReadableLiteralCrossSitesExactly) {
  // INT64_MIN has no SQL literal, and neither has an infinite REAL: as
  // INSERT text, the coordinator's parse of either failed the join
  // (INCORRECT). Typed TRANSFER rows carry them as they are.
  auto sys = BuildPaperFederation();
  ASSERT_TRUE(sys.ok()) << sys.status();
  auto clean = (*sys)->Execute(kCarsFlightsJoin);
  ASSERT_TRUE(clean.ok()) << clean.status();
  ASSERT_EQ(clean->outcome, GlobalOutcome::kSuccess);

  auto update = (*sys)->Execute(
      "USE avis UPDATE cars SET code = -9223372036854775807 - 1 "
      "WHERE code = 1");
  ASSERT_TRUE(update.ok() && update->outcome == GlobalOutcome::kSuccess);
  auto min_join = (*sys)->Execute(kCarsFlightsJoin);
  ASSERT_TRUE(min_join.ok()) << min_join.status();
  EXPECT_EQ(min_join->outcome, GlobalOutcome::kSuccess) << min_join->detail;
  EXPECT_EQ(SortedRows(min_join->join_result),
            Recoded(clean->join_result, 1, relational::Value::Integer(INT64_MIN)));

  // Car 2 at an infinite rate is below no flight: its rows leave the join.
  update = (*sys)->Execute(
      "USE avis UPDATE cars SET rate = 1e300 * 1e300 WHERE code = 2");
  ASSERT_TRUE(update.ok() && update->outcome == GlobalOutcome::kSuccess);
  auto inf_join = (*sys)->Execute(kCarsFlightsJoin);
  ASSERT_TRUE(inf_join.ok()) << inf_join.status();
  EXPECT_EQ(inf_join->outcome, GlobalOutcome::kSuccess) << inf_join->detail;
  EXPECT_EQ(SortedRows(inf_join->join_result),
            Recoded(min_join->join_result, 2, relational::Value::Null_()));
}

/// The `mdbs_*` tables left in `db` at `service`.
std::vector<std::string> ScratchTables(MultidatabaseSystem* sys,
                                       const std::string& service,
                                       const std::string& db) {
  std::vector<std::string> out;
  auto engine = sys->GetEngine(service);
  EXPECT_TRUE(engine.ok());
  if (!engine.ok()) return out;
  auto database = (*engine)->GetDatabaseConst(db);
  EXPECT_TRUE(database.ok());
  if (!database.ok()) return out;
  for (const std::string& name : (*database)->TableNames()) {
    if (name.rfind("mdbs_", 0) == 0) out.push_back(name);
  }
  return out;
}

TEST(DistOptDiffTest, FailedTransferDropsTheTableItCreated) {
  // avis coordinates this join (first by name). Its third EXECUTE is the
  // INSERT of the first TRANSFER, after the partial SELECT and the
  // CREATE TABLE. Whether that INSERT is rejected before it runs or runs
  // and loses its response, the run ends INCORRECT with the INSERT's
  // failure, the table it went into is dropped, and the same join then
  // succeeds; before, every later join failed with AlreadyExists.
  for (netsim::FaultAction action :
       {netsim::FaultAction::kReject, netsim::FaultAction::kLostResponse}) {
    SCOPED_TRACE(netsim::FaultActionName(action));
    auto sys = BuildPaperFederation();
    ASSERT_TRUE(sys.ok()) << sys.status();
    auto clean = (*sys)->Execute(kCarsFlightsJoin);
    ASSERT_TRUE(clean.ok() && clean->outcome == GlobalOutcome::kSuccess);

    (*sys)->set_retry_policy(dol::RetryPolicy::None());
    netsim::FaultPlan plan;
    plan.rules.push_back(netsim::FaultRule::NthCall(
        "avis_svc", netsim::LamRequestType::kExecute, 3, action));
    (*sys)->environment().fault_injector().SetPlan(plan);
    auto failed = (*sys)->Execute(kCarsFlightsJoin);
    ASSERT_TRUE(failed.ok()) << failed.status();
    EXPECT_EQ(failed->outcome, GlobalOutcome::kIncorrect);
    EXPECT_EQ(failed->detail.code(), StatusCode::kUnavailable)
        << failed->detail;
    EXPECT_EQ((*sys)->environment().fault_injector().stats().faults_fired,
              1);
    EXPECT_TRUE(ScratchTables(sys->get(), "avis_svc", "avis").empty());

    auto again = (*sys)->Execute(kCarsFlightsJoin);
    ASSERT_TRUE(again.ok()) << again.status();
    EXPECT_EQ(again->outcome, GlobalOutcome::kSuccess) << again->detail;
    EXPECT_EQ(SortedRows(again->join_result), SortedRows(clean->join_result));
    EXPECT_TRUE(ScratchTables(sys->get(), "avis_svc", "avis").empty());
  }
}

TEST(DistOptDiffTest, FailedTransferDropsEveryTableItsRunCreated) {
  // avis_svc's fifth EXECUTE is the second TRANSFER's INSERT, after the
  // first TRANSFER filled mdbs_tmp_avis and the second created its own
  // table. Rejecting it ends the run INCORRECT before its drop tasks
  // run; the run still drops both tables, or the next join at avis would
  // fail with AlreadyExists.
  auto sys = BuildPaperFederation();
  ASSERT_TRUE(sys.ok()) << sys.status();
  auto clean = (*sys)->Execute(kCarsFlightsJoin);
  ASSERT_TRUE(clean.ok() && clean->outcome == GlobalOutcome::kSuccess);

  (*sys)->set_retry_policy(dol::RetryPolicy::None());
  netsim::FaultPlan plan;
  plan.rules.push_back(netsim::FaultRule::NthCall(
      "avis_svc", netsim::LamRequestType::kExecute, 5,
      netsim::FaultAction::kReject));
  (*sys)->environment().fault_injector().SetPlan(plan);
  auto failed = (*sys)->Execute(kCarsFlightsJoin);
  ASSERT_TRUE(failed.ok()) << failed.status();
  EXPECT_EQ(failed->outcome, GlobalOutcome::kIncorrect);
  EXPECT_EQ(failed->detail.code(), StatusCode::kUnavailable) << failed->detail;
  EXPECT_EQ((*sys)->environment().fault_injector().stats().faults_fired, 1);
  EXPECT_TRUE(ScratchTables(sys->get(), "avis_svc", "avis").empty());
  EXPECT_TRUE(
      ScratchTables(sys->get(), "continental_svc", "continental").empty());

  auto again = (*sys)->Execute(kCarsFlightsJoin);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->outcome, GlobalOutcome::kSuccess) << again->detail;
  EXPECT_EQ(SortedRows(again->join_result), SortedRows(clean->join_result));
  EXPECT_TRUE(ScratchTables(sys->get(), "avis_svc", "avis").empty());
}

/// Skewed two-database federation: `alpha.small` holds 3 rows with 3
/// distinct keys, `beta.big` holds `big_rows` rows keyed 0..big_rows-1.
Result<std::unique_ptr<MultidatabaseSystem>> BuildSkewedPair(int big_rows) {
  auto sys = std::make_unique<MultidatabaseSystem>();
  for (const char* svc : {"alpha_svc", "beta_svc"}) {
    MSQL_RETURN_IF_ERROR(sys->AddService(
        svc, std::string("site_") + svc,
        relational::CapabilityProfile::IngresLike()));
  }
  MSQL_ASSIGN_OR_RETURN(auto* alpha, sys->GetEngine("alpha_svc"));
  MSQL_RETURN_IF_ERROR(alpha->CreateDatabase("alpha"));
  MSQL_RETURN_IF_ERROR(sys->RunLocalSql(
      "alpha_svc", "alpha",
      "CREATE TABLE small (k INTEGER, tag TEXT);"
      "INSERT INTO small VALUES (1, 'a'), (2, 'b'), (3, 'c')"));
  MSQL_ASSIGN_OR_RETURN(auto* beta, sys->GetEngine("beta_svc"));
  MSQL_RETURN_IF_ERROR(beta->CreateDatabase("beta"));
  MSQL_RETURN_IF_ERROR(
      sys->RunLocalSql("beta_svc", "beta",
                       "CREATE TABLE big (k INTEGER, v REAL)"));
  for (int start = 0; start < big_rows; start += 500) {
    std::string insert = "INSERT INTO big VALUES ";
    for (int i = start; i < std::min(start + 500, big_rows); ++i) {
      if (i > start) insert += ", ";
      insert += "(" + std::to_string(i) + ", " + std::to_string(i) + ".5)";
    }
    MSQL_RETURN_IF_ERROR(sys->RunLocalSql("beta_svc", "beta", insert));
  }
  for (const char* db : {"alpha", "beta"}) {
    auto inc = sys->Execute(
        "INCORPORATE SERVICE " + std::string(db) + "_svc SITE site_" + db +
        "_svc CONNECTMODE CONNECT COMMITMODE NOCOMMIT CREATE NOCOMMIT "
        "INSERT NOCOMMIT DROP NOCOMMIT");
    MSQL_RETURN_IF_ERROR(inc.status());
    auto imp = sys->Execute("IMPORT DATABASE " + std::string(db) +
                            " FROM SERVICE " + db + "_svc");
    MSQL_RETURN_IF_ERROR(imp.status());
  }
  return sys;
}

TEST(DistOptDiffTest, SemiJoinReductionPreservesAnswersAndSavesBytes) {
  constexpr int kBigRows = 5000;
  const std::string sql =
      "USE alpha beta\n"
      "SELECT small.tag, big.v FROM alpha.small, beta.big "
      "WHERE small.k = big.k";

  auto heur_sys = BuildSkewedPair(kBigRows);
  ASSERT_TRUE(heur_sys.ok()) << heur_sys.status();
  (*heur_sys)->set_cost_based_optimizer(false);
  auto heur = (*heur_sys)->Execute(sql);
  ASSERT_TRUE(heur.ok()) << heur.status();
  ASSERT_EQ(heur->outcome, GlobalOutcome::kSuccess);
  ASSERT_EQ(heur->join_result.rows.size(), 3u);

  auto cost_sys = BuildSkewedPair(kBigRows);
  ASSERT_TRUE(cost_sys.ok()) << cost_sys.status();
  ASSERT_TRUE((*cost_sys)->Execute("ANALYZE DATABASE alpha").ok());
  ASSERT_TRUE((*cost_sys)->Execute("ANALYZE DATABASE beta").ok());
  auto cost = (*cost_sys)->Execute(sql);
  ASSERT_TRUE(cost.ok()) << cost.status();
  EXPECT_EQ(cost->outcome, GlobalOutcome::kSuccess);
  EXPECT_EQ(SortedRows(cost->join_result), SortedRows(heur->join_result));
  // 3 provider keys against 5000 distinct remote keys: the optimizer
  // must choose the key-filter transfer and move far fewer bytes.
  EXPECT_NE(cost->cost_text.find("semi-join keys"), std::string::npos)
      << cost->cost_text;
  EXPECT_LT(cost->run.bytes, heur->run.bytes / 10)
      << "cost-based moved " << cost->run.bytes << " bytes vs heuristic "
      << heur->run.bytes << "\n" << cost->cost_text;
  // The installed key table was dropped at the remote site.
  auto beta_engine = (*cost_sys)->GetEngine("beta_svc");
  ASSERT_TRUE(beta_engine.ok());
  auto beta_db = (*beta_engine)->GetDatabaseConst("beta");
  ASSERT_TRUE(beta_db.ok());
  EXPECT_FALSE((*beta_db)->HasTable("mdbs_key_beta"));
}

}  // namespace
}  // namespace msql::core
