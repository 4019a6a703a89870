// DOL language (parser/printer round-trip, experiment E7) and engine
// semantics (tasks, parallel timing, conditions, commit/abort/
// compensate/transfer).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "dol/engine.h"
#include "dol/parser.h"
#include "netsim/environment.h"
#include "relational/engine.h"

namespace msql::dol {
namespace {

using netsim::Environment;
using netsim::LinkParams;
using relational::CapabilityProfile;
using relational::LocalEngine;

TEST(DolParserTest, Section43ProgramParses) {
  // The paper's §4.3 listing, adapted to the implemented grammar (OPEN's
  // AT names the service; real SQL in the braces; block-ELSE syntax).
  const char* text = R"(
DOLBEGIN
  OPEN continental AT cont_svc AS cont;
  OPEN delta AT delta_svc AS delta;
  OPEN united AT united_svc AS unit;
  TASK t1 NOCOMMIT FOR cont { UPDATE flights SET rate = rate * 1.1 }
  ENDTASK;
  TASK t2 FOR delta { UPDATE flight SET rate = rate * 1.1 }
  ENDTASK;
  TASK t3 NOCOMMIT FOR unit { UPDATE flight SET rates = rates * 1.1 }
  ENDTASK;
  IF (t1=P) AND (t3=P) THEN
  BEGIN
    COMMIT t1, t3;
    DOLSTATUS = 0;
  END;
  ELSE
  BEGIN
    ABORT t1, t3;
    DOLSTATUS = 1;
  END;
  CLOSE cont delta unit;
DOLEND
)";
  auto program = ParseDol(text);
  ASSERT_TRUE(program.ok()) << program.status();
  ASSERT_EQ(program->statements.size(), 8u);
  EXPECT_EQ(program->statements[0]->kind(), DolStmtKind::kOpen);
  EXPECT_EQ(program->statements[3]->kind(), DolStmtKind::kTask);
  const auto& t1 = static_cast<const TaskStmt&>(*program->statements[3]);
  EXPECT_TRUE(t1.nocommit);
  EXPECT_EQ(t1.body_sql, "UPDATE flights SET rate = rate * 1.1");
  const auto& t2 = static_cast<const TaskStmt&>(*program->statements[4]);
  EXPECT_FALSE(t2.nocommit);
  EXPECT_EQ(program->statements[6]->kind(), DolStmtKind::kIf);
}

TEST(DolParserTest, RoundTripFixpoint) {
  const char* text = R"(
DOLBEGIN
  OPEN a AT a_svc AS ca;
  PARBEGIN
    TASK t1 NOCOMMIT FOR ca { UPDATE t SET x = 1 WHERE y = 'z' }
      COMPENSATION { UPDATE t SET x = 0 WHERE y = 'z' }
    ENDTASK;
    TASK t2 FOR ca { SELECT a, b FROM t }
    ENDTASK;
  PAREND;
  TRANSFER t2 TO ca TABLE tmp (a INTEGER, b TEXT(8));
  IF (t1=P) OR NOT (t2=C) THEN
  BEGIN
    COMMIT t1;
    COMPENSATE t1;
    DOLSTATUS = 2;
  END;
  CLOSE ca;
DOLEND
)";
  auto first = ParseDol(text);
  ASSERT_TRUE(first.ok()) << first.status();
  std::string rendered = first->ToDol();
  auto second = ParseDol(rendered);
  ASSERT_TRUE(second.ok()) << rendered << "\n" << second.status();
  EXPECT_EQ(second->ToDol(), rendered);
}

TEST(DolParserTest, Errors) {
  EXPECT_FALSE(ParseDol("OPEN a AT b AS c;").ok());  // missing DOLBEGIN
  EXPECT_FALSE(ParseDol("DOLBEGIN OPEN a AT b AS c;").ok());  // no DOLEND
  EXPECT_FALSE(
      ParseDol("DOLBEGIN TASK t FOR a { x ENDTASK; DOLEND").ok());
  EXPECT_FALSE(
      ParseDol("DOLBEGIN IF (t=Q) THEN DOLSTATUS = 0; DOLEND").ok());
  EXPECT_FALSE(ParseDol("DOLBEGIN CLOSE; DOLEND").ok());
}

std::string Repeat(const std::string& piece, int n) {
  std::string out;
  out.reserve(piece.size() * n);
  for (int i = 0; i < n; ++i) out += piece;
  return out;
}

TEST(DolParserTest, NestingDepthIsBounded) {
  // Each hostile program ends in a parse error naming the limit instead
  // of overflowing the stack of the parser or of a later tree walk.
  const std::string status = " THEN DOLSTATUS = 1; DOLEND";
  const std::vector<std::string> too_deep = {
      "DOLBEGIN IF " + Repeat("(", 20000) + "t=P" + Repeat(")", 20000) +
          status,
      "DOLBEGIN " + Repeat("PARBEGIN ", 20000) + "DOLSTATUS = 1; " +
          Repeat("PAREND; ", 20000) + "DOLEND",
      "DOLBEGIN IF t=P" + Repeat(" OR t=P", 99999) + status,
      "DOLBEGIN " + Repeat("IF t=P THEN ", 20000) + "DOLSTATUS = 1; DOLEND",
  };
  const std::string limit =
      "limit of " + std::to_string(kMaxDolNesting) + " levels";
  for (const auto& text : too_deep) {
    SCOPED_TRACE(text.substr(0, 40));
    auto parsed = ParseDol(text);
    EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
    EXPECT_NE(parsed.status().message().find(limit), std::string::npos)
        << parsed.status();
  }

  // At the limit: each parenthesis, PARBEGIN block and IF body is one
  // level, and each OR one more above the chain so far. These parse and
  // round-trip through ToDol; one more level is too deep.
  const int n = kMaxDolNesting;
  auto parens = [](int k) {
    return "DOLBEGIN IF " + Repeat("(", k) + "t=P" + Repeat(")", k) +
           " THEN DOLSTATUS = 1; DOLEND";
  };
  auto blocks = [](int k) {
    return "DOLBEGIN " + Repeat("PARBEGIN ", k) + "DOLSTATUS = 1; " +
           Repeat("PAREND; ", k) + "DOLEND";
  };
  auto ifs = [](int k) {
    return "DOLBEGIN " + Repeat("IF t=P THEN ", k) + "DOLSTATUS = 1; DOLEND";
  };
  for (const auto& text : {parens(n), blocks(n), ifs(n)}) {
    SCOPED_TRACE(text.substr(0, 40));
    auto first = ParseDol(text);
    ASSERT_TRUE(first.ok()) << first.status();
    const std::string rendered = first->ToDol();
    auto second = ParseDol(rendered);
    ASSERT_TRUE(second.ok()) << second.status();
    EXPECT_EQ(second->ToDol(), rendered);
  }
  for (const auto& text : {parens(n + 1), blocks(n + 1), ifs(n + 1)}) {
    EXPECT_EQ(ParseDol(text).status().code(), StatusCode::kParseError);
  }
  const std::string chain = "DOLBEGIN IF t=P" + Repeat(" OR t=P", n);
  EXPECT_TRUE(ParseDol(chain + status).ok());
  EXPECT_EQ(ParseDol(chain + " OR t=P" + status).status().code(),
            StatusCode::kParseError);
}

// --- engine ----------------------------------------------------------------

class DolEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LinkParams link;
    link.latency_micros = 1000;
    link.micros_per_kb = 0;
    env_.network().set_default_link(link);
    AddEngine("asvc", "site_a", CapabilityProfile::IngresLike());
    AddEngine("bsvc", "site_b", CapabilityProfile::IngresLike());
  }

  void AddEngine(const std::string& service, const std::string& site,
                 CapabilityProfile profile) {
    auto engine = std::make_unique<LocalEngine>(service, profile);
    ASSERT_TRUE(engine->CreateDatabase("db").ok());
    auto s = *engine->OpenSession("db");
    ASSERT_TRUE(
        engine->Execute(s, "CREATE TABLE t (id INTEGER, v TEXT)").ok());
    ASSERT_TRUE(
        engine->Execute(s, "INSERT INTO t VALUES (1, 'a'), (2, 'b')").ok());
    ASSERT_TRUE(engine->CloseSession(s).ok());
    engines_[service] = engine.get();
    ASSERT_TRUE(env_.AddService(service, site, std::move(engine)).ok());
  }

  int64_t CountRows(const std::string& service) {
    auto s = *engines_[service]->OpenSession("db");
    auto rs = engines_[service]->Execute(s, "SELECT COUNT(*) FROM t");
    EXPECT_TRUE(engines_[service]->CloseSession(s).ok());
    return rs->rows[0][0].AsInteger();
  }

  DolRunResult Run(const std::string& text) {
    auto program = ParseDol(text);
    EXPECT_TRUE(program.ok()) << program.status();
    DolEngine engine(&env_);
    auto result = engine.Run(*program);
    EXPECT_TRUE(result.ok()) << result.status();
    return result.ok() ? std::move(*result) : DolRunResult{};
  }

  Environment env_;
  std::map<std::string, LocalEngine*> engines_;
};

TEST_F(DolEngineTest, AutocommitTaskCommits) {
  auto result = Run(R"(
DOLBEGIN
  OPEN db AT asvc AS a;
  TASK t1 FOR a { INSERT INTO t VALUES ( 3 , 'c' ) } ENDTASK;
  DOLSTATUS = 0;
  CLOSE a;
DOLEND)");
  EXPECT_EQ(result.dol_status, 0);
  EXPECT_EQ(result.FindTask("t1")->state, DolTaskState::kCommitted);
  EXPECT_EQ(CountRows("asvc"), 3);
}

TEST_F(DolEngineTest, NocommitTaskParksPrepared) {
  auto result = Run(R"(
DOLBEGIN
  OPEN db AT asvc AS a;
  TASK t1 NOCOMMIT FOR a { DELETE FROM t } ENDTASK;
  IF t1=P THEN BEGIN ABORT t1; END;
  CLOSE a;
DOLEND)");
  EXPECT_EQ(result.FindTask("t1")->state, DolTaskState::kAborted);
  EXPECT_EQ(CountRows("asvc"), 2);  // rolled back
}

TEST_F(DolEngineTest, CommitOfPreparedTaskPersists) {
  auto result = Run(R"(
DOLBEGIN
  OPEN db AT asvc AS a;
  TASK t1 NOCOMMIT FOR a { DELETE FROM t WHERE id = 1 } ENDTASK;
  IF t1=P THEN BEGIN COMMIT t1; DOLSTATUS = 0; END;
  ELSE BEGIN DOLSTATUS = 1; END;
  CLOSE a;
DOLEND)");
  EXPECT_EQ(result.dol_status, 0);
  EXPECT_EQ(result.FindTask("t1")->state, DolTaskState::kCommitted);
  EXPECT_EQ(CountRows("asvc"), 1);
}

TEST_F(DolEngineTest, FailingSqlAbortsTask) {
  auto result = Run(R"(
DOLBEGIN
  OPEN db AT asvc AS a;
  TASK t1 FOR a { DELETE FROM ghost } ENDTASK;
  IF t1=A THEN BEGIN DOLSTATUS = 7; END;
  CLOSE a;
DOLEND)");
  EXPECT_EQ(result.dol_status, 7);
  EXPECT_EQ(result.FindTask("t1")->state, DolTaskState::kAborted);
  EXPECT_FALSE(result.FindTask("t1")->last_status.ok());
}

TEST_F(DolEngineTest, PrepareRefusedOnAutocommitOnlyService) {
  AddEngine("csvc", "site_c", CapabilityProfile::SybaseLike());
  auto result = Run(R"(
DOLBEGIN
  OPEN db AT csvc AS c;
  TASK t1 NOCOMMIT FOR c { DELETE FROM t } ENDTASK;
  CLOSE c;
DOLEND)");
  EXPECT_EQ(result.FindTask("t1")->state, DolTaskState::kAborted);
  EXPECT_EQ(CountRows("csvc"), 2);  // nothing leaked
}

TEST_F(DolEngineTest, FailedOpenPoisonsChannel) {
  ASSERT_TRUE(env_.network().SetSiteDown("site_a", true).ok());
  auto result = Run(R"(
DOLBEGIN
  OPEN db AT asvc AS a;
  TASK t1 FOR a { SELECT * FROM t } ENDTASK;
  IF t1=A THEN BEGIN DOLSTATUS = 1; END;
  CLOSE a;
DOLEND)");
  EXPECT_EQ(result.dol_status, 1);
  EXPECT_EQ(result.FindTask("t1")->state, DolTaskState::kAborted);
  EXPECT_EQ(result.FindTask("t1")->last_status.code(),
            StatusCode::kUnavailable);
}

TEST_F(DolEngineTest, ParallelTasksOverlapOnTheClock) {
  const char* parallel_text = R"(
DOLBEGIN
  OPEN db AT asvc AS a;
  OPEN db AT bsvc AS b;
  PARBEGIN
    TASK t1 FOR a { SELECT * FROM t } ENDTASK;
    TASK t2 FOR b { SELECT * FROM t } ENDTASK;
  PAREND;
  CLOSE a b;
DOLEND)";
  const char* sequential_text = R"(
DOLBEGIN
  OPEN db AT asvc AS a;
  OPEN db AT bsvc AS b;
  TASK t1 FOR a { SELECT * FROM t } ENDTASK;
  TASK t2 FOR b { SELECT * FROM t } ENDTASK;
  CLOSE a b;
DOLEND)";
  auto par = Run(parallel_text);
  auto seq = Run(sequential_text);
  EXPECT_LT(par.makespan_micros, seq.makespan_micros);
  // Both tasks in the parallel run started at the same instant.
  EXPECT_EQ(par.FindTask("t1")->start_micros,
            par.FindTask("t2")->start_micros);
  // Same message count either way: parallelism wins time, not traffic.
  EXPECT_EQ(par.messages, seq.messages);
}

TEST_F(DolEngineTest, CompensationSemanticallyUndoes) {
  auto result = Run(R"(
DOLBEGIN
  OPEN db AT asvc AS a;
  TASK t1 FOR a { UPDATE t SET v = 'changed' WHERE id = 1 }
    COMPENSATION { UPDATE t SET v = 'a' WHERE id = 1 }
  ENDTASK;
  IF t1=C THEN BEGIN COMPENSATE t1; END;
  CLOSE a;
DOLEND)");
  EXPECT_EQ(result.FindTask("t1")->state, DolTaskState::kCompensated);
  auto s = *engines_["asvc"]->OpenSession("db");
  auto rs = engines_["asvc"]->Execute(s, "SELECT v FROM t WHERE id = 1");
  EXPECT_EQ(rs->rows[0][0].AsText(), "a");
}

TEST_F(DolEngineTest, CompensateWithoutBlockIsProgramError) {
  auto program = ParseDol(R"(
DOLBEGIN
  OPEN db AT asvc AS a;
  TASK t1 FOR a { DELETE FROM t WHERE id = 1 } ENDTASK;
  COMPENSATE t1;
  CLOSE a;
DOLEND)");
  ASSERT_TRUE(program.ok());
  DolEngine engine(&env_);
  auto result = engine.Run(*program);
  EXPECT_EQ(result.status().code(), StatusCode::kTransactionError);
}

TEST_F(DolEngineTest, AbortOfCommittedTaskIsProgramError) {
  auto program = ParseDol(R"(
DOLBEGIN
  OPEN db AT asvc AS a;
  TASK t1 FOR a { DELETE FROM t WHERE id = 1 } ENDTASK;
  ABORT t1;
  CLOSE a;
DOLEND)");
  ASSERT_TRUE(program.ok());
  DolEngine engine(&env_);
  EXPECT_EQ(engine.Run(*program).status().code(),
            StatusCode::kTransactionError);
}

TEST_F(DolEngineTest, TransferShipsPartialResult) {
  auto result = Run(R"(
DOLBEGIN
  OPEN db AT asvc AS a;
  OPEN db AT bsvc AS b;
  TASK t1 FOR a { SELECT id, v FROM t WHERE id = 1 } ENDTASK;
  TRANSFER t1 TO b TABLE tmp_a (id INTEGER, v TEXT);
  TASK q FOR b { SELECT COUNT ( * ) FROM tmp_a } ENDTASK;
  TASK drop1 FOR b { DROP TABLE tmp_a } ENDTASK;
  CLOSE a b;
DOLEND)");
  const TaskOutcome* q = result.FindTask("q");
  ASSERT_NE(q, nullptr);
  ASSERT_EQ(q->state, DolTaskState::kCommitted);
  EXPECT_EQ(q->result.rows[0][0].AsInteger(), 1);
}

TEST_F(DolEngineTest, ConditionLogicOverStates) {
  auto result = Run(R"(
DOLBEGIN
  OPEN db AT asvc AS a;
  TASK good FOR a { SELECT * FROM t } ENDTASK;
  TASK bad FOR a { SELECT * FROM ghost } ENDTASK;
  IF (good=C) AND (bad=A) THEN BEGIN DOLSTATUS = 10; END;
  IF (good=C) OR (bad=C) THEN BEGIN DOLSTATUS = 11; END;
  IF NOT (bad=C) THEN BEGIN DOLSTATUS = 12; END;
  CLOSE a;
DOLEND)");
  EXPECT_EQ(result.dol_status, 12);  // last matching IF wins
}

TEST_F(DolEngineTest, UnknownTaskInConditionIsError) {
  auto program = ParseDol(R"(
DOLBEGIN
  IF ghost=C THEN BEGIN DOLSTATUS = 1; END;
DOLEND)");
  ASSERT_TRUE(program.ok());
  DolEngine engine(&env_);
  EXPECT_EQ(engine.Run(*program).status().code(), StatusCode::kNotFound);
}

TEST_F(DolEngineTest, DuplicateTaskAndAliasRejected) {
  auto dup_alias = ParseDol(R"(
DOLBEGIN
  OPEN db AT asvc AS a;
  OPEN db AT bsvc AS a;
DOLEND)");
  ASSERT_TRUE(dup_alias.ok());
  DolEngine engine(&env_);
  EXPECT_EQ(engine.Run(*dup_alias).status().code(),
            StatusCode::kInvalidArgument);
}

// Regression: one engine must be reusable across Run calls — every
// piece of per-run state (channels, tasks, compensations, counters,
// DOLSTATUS) is reset at entry, so run 2 sees none of run 1.
TEST_F(DolEngineTest, EngineIsReusableAcrossRuns) {
  const char* text = R"(
DOLBEGIN
  OPEN db AT asvc AS a;
  TASK t1 FOR a { INSERT INTO t VALUES ( 9 , 'x' ) } ENDTASK;
  IF t1=C THEN BEGIN DOLSTATUS = 5; END;
  CLOSE a;
DOLEND)";
  auto program = ParseDol(text);
  ASSERT_TRUE(program.ok()) << program.status();
  DolEngine engine(&env_);
  auto first = engine.Run(*program);
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = engine.Run(*program);
  ASSERT_TRUE(second.ok()) << second.status();
  // Identical per-run results: same status, same single task, same
  // traffic and timing — nothing accumulated from run 1.
  EXPECT_EQ(second->dol_status, first->dol_status);
  EXPECT_EQ(second->tasks.size(), 1u);
  EXPECT_EQ(second->messages, first->messages);
  EXPECT_EQ(second->bytes, first->bytes);
  EXPECT_EQ(second->makespan_micros, first->makespan_micros);
  EXPECT_EQ(second->retries, 0);
  EXPECT_EQ(second->reprobes, 0);
  EXPECT_EQ(CountRows("asvc"), 4);  // both inserts really ran
}

// Regression: DolRunResult.messages/bytes were computed as deltas of
// the *global* network counters, so any unrelated traffic on the same
// environment between or during runs was billed to the run. They are
// now summed from per-call accounting.
TEST_F(DolEngineTest, RunTrafficIgnoresUnrelatedEnvironmentCalls) {
  const char* text = R"(
DOLBEGIN
  OPEN db AT asvc AS a;
  TASK t1 FOR a { SELECT * FROM t } ENDTASK;
  CLOSE a;
DOLEND)";
  auto program = ParseDol(text);
  ASSERT_TRUE(program.ok()) << program.status();
  DolEngine engine(&env_);
  auto first = engine.Run(*program);
  ASSERT_TRUE(first.ok()) << first.status();
  // Stray coordinator traffic outside any run (health probes, another
  // engine's calls) must not appear in the next run's accounting.
  netsim::LamRequest ping;
  ping.type = netsim::LamRequestType::kPing;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(env_.Call("bsvc", ping, 0).ok());
  }
  auto second = engine.Run(*program);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->messages, first->messages);
  EXPECT_EQ(second->bytes, first->bytes);
  EXPECT_GT(second->messages, 0);
}

}  // namespace
}  // namespace msql::dol
