// Local transaction semantics: undo, prepared-to-commit, capability
// profiles (the §3.2.2 Ingres-vs-Oracle DDL heterogeneity) and failure
// injection (experiment E9).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "relational/engine.h"

namespace msql::relational {
namespace {

std::unique_ptr<LocalEngine> MakeEngine(CapabilityProfile profile) {
  auto engine = std::make_unique<LocalEngine>("svc", std::move(profile));
  EXPECT_TRUE(engine->CreateDatabase("db").ok());
  SessionId boot = *engine->OpenSession("db");
  EXPECT_TRUE(engine
                  ->Execute(boot,
                            "CREATE TABLE t (id INTEGER, v TEXT)")
                  .ok());
  EXPECT_TRUE(engine
                  ->Execute(boot,
                            "INSERT INTO t VALUES (1, 'a'), (2, 'b')")
                  .ok());
  EXPECT_TRUE(engine->CloseSession(boot).ok());
  return engine;
}

int64_t CountRows(LocalEngine* engine, SessionId session) {
  auto rs = engine->Execute(session, "SELECT COUNT(*) FROM t");
  EXPECT_TRUE(rs.ok());
  return rs->rows[0][0].AsInteger();
}

TEST(TxnTest, AutocommitIsImmediatelyDurable) {
  auto engine = MakeEngine(CapabilityProfile::IngresLike());
  SessionId s = *engine->OpenSession("db");
  ASSERT_TRUE(engine->Execute(s, "INSERT INTO t VALUES (3, 'c')").ok());
  EXPECT_EQ(*engine->GetTxnState(s), TxnState::kCommitted);
  EXPECT_EQ(CountRows(engine.get(), s), 3);
}

TEST(TxnTest, RollbackUndoesDmlInReverse) {
  auto engine = MakeEngine(CapabilityProfile::IngresLike());
  SessionId s = *engine->OpenSession("db");
  ASSERT_TRUE(engine->Begin(s).ok());
  ASSERT_TRUE(engine->Execute(s, "INSERT INTO t VALUES (3, 'c')").ok());
  ASSERT_TRUE(
      engine->Execute(s, "UPDATE t SET v = 'zz' WHERE id = 1").ok());
  ASSERT_TRUE(engine->Execute(s, "DELETE FROM t WHERE id = 2").ok());
  EXPECT_EQ(CountRows(engine.get(), s), 2);  // own writes visible
  ASSERT_TRUE(engine->Rollback(s).ok());
  EXPECT_EQ(CountRows(engine.get(), s), 2);
  auto v = engine->Execute(s, "SELECT v FROM t WHERE id = 1");
  EXPECT_EQ((*v).rows[0][0], Value::Text("a"));  // update undone
  auto restored = engine->Execute(s, "SELECT v FROM t WHERE id = 2");
  EXPECT_EQ((*restored).rows.size(), 1u);  // delete undone
}

TEST(TxnTest, CommitMakesChangesPermanent) {
  auto engine = MakeEngine(CapabilityProfile::IngresLike());
  SessionId s = *engine->OpenSession("db");
  ASSERT_TRUE(engine->Begin(s).ok());
  ASSERT_TRUE(engine->Execute(s, "DELETE FROM t WHERE id = 1").ok());
  ASSERT_TRUE(engine->Commit(s).ok());
  EXPECT_EQ(CountRows(engine.get(), s), 1);
}

TEST(TxnTest, PreparedStateLifecycle) {
  auto engine = MakeEngine(CapabilityProfile::IngresLike());
  SessionId s = *engine->OpenSession("db");
  ASSERT_TRUE(engine->Begin(s).ok());
  ASSERT_TRUE(engine->Execute(s, "INSERT INTO t VALUES (9, 'p')").ok());
  ASSERT_TRUE(engine->Prepare(s).ok());
  EXPECT_EQ(*engine->GetTxnState(s), TxnState::kPrepared);
  // No statements while prepared.
  EXPECT_FALSE(engine->Execute(s, "SELECT * FROM t").ok());
  // But commit is allowed.
  ASSERT_TRUE(engine->Commit(s).ok());
  EXPECT_EQ(*engine->GetTxnState(s), TxnState::kCommitted);
  EXPECT_EQ(CountRows(engine.get(), s), 3);
}

TEST(TxnTest, PreparedThenRollback) {
  auto engine = MakeEngine(CapabilityProfile::IngresLike());
  SessionId s = *engine->OpenSession("db");
  ASSERT_TRUE(engine->Begin(s).ok());
  ASSERT_TRUE(engine->Execute(s, "INSERT INTO t VALUES (9, 'p')").ok());
  ASSERT_TRUE(engine->Prepare(s).ok());
  ASSERT_TRUE(engine->Rollback(s).ok());
  EXPECT_EQ(CountRows(engine.get(), s), 2);
}

TEST(TxnTest, AutocommitOnlyEngineRefusesPrepare) {
  auto engine = MakeEngine(CapabilityProfile::SybaseLike());
  SessionId s = *engine->OpenSession("db");
  ASSERT_TRUE(engine->Begin(s).ok());
  ASSERT_TRUE(engine->Execute(s, "INSERT INTO t VALUES (9, 'p')").ok());
  Status prep = engine->Prepare(s);
  EXPECT_EQ(prep.code(), StatusCode::kTransactionError);
  // The transaction itself is still usable and can be rolled back.
  ASSERT_TRUE(engine->Rollback(s).ok());
  EXPECT_EQ(CountRows(engine.get(), s), 2);
}

TEST(TxnTest, IngresLikeDdlRollsBack) {
  auto engine = MakeEngine(CapabilityProfile::IngresLike());
  SessionId s = *engine->OpenSession("db");
  ASSERT_TRUE(engine->Begin(s).ok());
  ASSERT_TRUE(engine->Execute(s, "CREATE TABLE t2 (x INTEGER)").ok());
  ASSERT_TRUE(engine->Execute(s, "INSERT INTO t2 VALUES (1)").ok());
  ASSERT_TRUE(engine->Rollback(s).ok());
  // The created table vanished with the rollback.
  EXPECT_FALSE(engine->Execute(s, "SELECT * FROM t2").ok());
}

TEST(TxnTest, IngresLikeDropRollsBackWithData) {
  auto engine = MakeEngine(CapabilityProfile::IngresLike());
  SessionId s = *engine->OpenSession("db");
  ASSERT_TRUE(engine->Begin(s).ok());
  ASSERT_TRUE(engine->Execute(s, "DROP TABLE t").ok());
  EXPECT_FALSE(engine->Execute(s, "SELECT * FROM t").ok());
  // Statement failure aborted the txn — t must be back, data intact.
  SessionId s2 = *engine->OpenSession("db");
  EXPECT_EQ(CountRows(engine.get(), s2), 2);
}

TEST(TxnTest, OracleLikeDdlCommitsPriorWork) {
  // "another automatically commits them together with all previously
  // issued uncommitted statements" (§3.2.2).
  auto engine = MakeEngine(CapabilityProfile::OracleLike());
  SessionId s = *engine->OpenSession("db");
  ASSERT_TRUE(engine->Begin(s).ok());
  ASSERT_TRUE(engine->Execute(s, "INSERT INTO t VALUES (3, 'c')").ok());
  ASSERT_TRUE(engine->Execute(s, "CREATE TABLE t2 (x INTEGER)").ok());
  // Rolling back now must NOT undo the insert: the DDL committed it.
  ASSERT_TRUE(engine->Rollback(s).ok());
  EXPECT_EQ(CountRows(engine.get(), s), 3);
  // And the created table survives too.
  EXPECT_TRUE(engine->Execute(s, "SELECT * FROM t2").ok());
}

TEST(TxnTest, LockConflictAbortsImmediately) {
  auto engine = MakeEngine(CapabilityProfile::IngresLike());
  SessionId writer = *engine->OpenSession("db");
  SessionId reader = *engine->OpenSession("db");
  ASSERT_TRUE(engine->Begin(writer).ok());
  ASSERT_TRUE(
      engine->Execute(writer, "UPDATE t SET v = 'w' WHERE id = 1").ok());
  // Reader needs a shared lock on t — conflicts with the exclusive one.
  auto read = engine->Execute(reader, "SELECT * FROM t");
  EXPECT_EQ(read.status().code(), StatusCode::kAborted);
  ASSERT_TRUE(engine->Commit(writer).ok());
  // After commit the lock is gone.
  EXPECT_TRUE(engine->Execute(reader, "SELECT * FROM t").ok());
}

TEST(TxnTest, SharedLocksCoexist) {
  auto engine = MakeEngine(CapabilityProfile::IngresLike());
  SessionId a = *engine->OpenSession("db");
  SessionId b = *engine->OpenSession("db");
  ASSERT_TRUE(engine->Begin(a).ok());
  ASSERT_TRUE(engine->Begin(b).ok());
  EXPECT_TRUE(engine->Execute(a, "SELECT * FROM t").ok());
  EXPECT_TRUE(engine->Execute(b, "SELECT * FROM t").ok());
  // But now an upgrade by a conflicts with b's shared lock.
  auto upgrade = engine->Execute(a, "DELETE FROM t");
  EXPECT_EQ(upgrade.status().code(), StatusCode::kAborted);
}

// The lock table on its own: S and X on "db.table" keys.
TEST(LockManagerTest, TableLockSemantics) {
  using Mode = LockManager::Mode;
  LockManager locks;
  locks.set_audit(true);
  Transaction a(1);
  Transaction b(2);
  Transaction c(3);

  // S and S coexist, in one entry per locked table.
  ASSERT_TRUE(locks.Acquire(&a, "d.t", Mode::kShared).ok());
  ASSERT_TRUE(locks.Acquire(&b, "d.t", Mode::kShared).ok());
  EXPECT_TRUE(locks.last_conflict().empty());
  EXPECT_EQ(locks.locked_resource_count(), 1u);

  // X against S fails under the default no-wait policy and names the
  // holders.
  Status x = locks.Acquire(&c, "d.t", Mode::kExclusive);
  EXPECT_EQ(x.code(), StatusCode::kAborted);
  EXPECT_EQ(x.message(), "lock conflict on d.t");
  EXPECT_EQ(locks.last_conflict(), (std::vector<TxnId>{1, 2}));

  // An S->X upgrade fails against a second S holder, and names it.
  Status upgrade = locks.Acquire(&a, "d.t", Mode::kExclusive);
  EXPECT_EQ(upgrade.code(), StatusCode::kAborted);
  EXPECT_EQ(upgrade.message(), "lock upgrade conflict on d.t");
  EXPECT_EQ(locks.last_conflict(), (std::vector<TxnId>{2}));

  // Under the wait policy the same conflict is kBusy.
  locks.set_wait_policy(LockManager::WaitPolicy::kWait);
  EXPECT_EQ(locks.Acquire(&c, "d.t", Mode::kExclusive).code(),
            StatusCode::kBusy);
  EXPECT_EQ(locks.last_conflict(), (std::vector<TxnId>{1, 2}));

  // Once b is gone, a upgrades; a covered re-request (S after X) grants
  // nothing new.
  locks.ReleaseAll(&b);
  ASSERT_TRUE(locks.Acquire(&a, "d.t", Mode::kExclusive).ok());
  const size_t grants = locks.audit_log().size();
  ASSERT_TRUE(locks.Acquire(&a, "d.t", Mode::kShared).ok());
  EXPECT_TRUE(locks.last_conflict().empty());
  EXPECT_EQ(locks.audit_log().size(), grants);
  EXPECT_EQ(locks.audit_log().back(),
            (std::pair<std::string, Mode>{"d.t", Mode::kExclusive}));
  EXPECT_EQ(locks.Acquire(&c, "d.t", Mode::kShared).code(),
            StatusCode::kBusy);
  EXPECT_EQ(locks.last_conflict(), (std::vector<TxnId>{1}));

  // ReleaseAll frees everything.
  ASSERT_TRUE(locks.Acquire(&c, "d.u", Mode::kShared).ok());
  locks.ReleaseAll(&a);
  locks.ReleaseAll(&c);
  EXPECT_EQ(locks.locked_resource_count(), 0u);
  EXPECT_TRUE(a.held_locks().empty());
  EXPECT_TRUE(c.held_locks().empty());
}

TEST(TxnTest, CloseSessionAbortsOpenTransaction) {
  auto engine = MakeEngine(CapabilityProfile::IngresLike());
  SessionId s = *engine->OpenSession("db");
  ASSERT_TRUE(engine->Begin(s).ok());
  ASSERT_TRUE(engine->Execute(s, "DELETE FROM t").ok());
  ASSERT_TRUE(engine->CloseSession(s).ok());
  SessionId s2 = *engine->OpenSession("db");
  EXPECT_EQ(CountRows(engine.get(), s2), 2);  // delete rolled back
}

TEST(TxnTest, InjectedStatementFailureAbortsTxn) {
  auto engine = MakeEngine(CapabilityProfile::IngresLike());
  SessionId s = *engine->OpenSession("db");
  ASSERT_TRUE(engine->Begin(s).ok());
  ASSERT_TRUE(engine->Execute(s, "DELETE FROM t WHERE id = 1").ok());
  engine->InjectFailure(FailPoint::kNextStatement);
  auto result = engine->Execute(s, "DELETE FROM t WHERE id = 2");
  EXPECT_EQ(result.status().code(), StatusCode::kAborted);
  EXPECT_EQ(*engine->GetTxnState(s), TxnState::kAborted);
  EXPECT_EQ(CountRows(engine.get(), s), 2);  // first delete undone too
}

TEST(TxnTest, InjectedPrepareFailure) {
  auto engine = MakeEngine(CapabilityProfile::IngresLike());
  SessionId s = *engine->OpenSession("db");
  ASSERT_TRUE(engine->Begin(s).ok());
  ASSERT_TRUE(engine->Execute(s, "DELETE FROM t").ok());
  engine->InjectFailure(FailPoint::kNextPrepare);
  EXPECT_EQ(engine->Prepare(s).code(), StatusCode::kAborted);
  EXPECT_EQ(*engine->GetTxnState(s), TxnState::kAborted);
  EXPECT_EQ(CountRows(engine.get(), s), 2);
}

TEST(TxnTest, InjectedCommitFailure) {
  auto engine = MakeEngine(CapabilityProfile::IngresLike());
  SessionId s = *engine->OpenSession("db");
  ASSERT_TRUE(engine->Begin(s).ok());
  ASSERT_TRUE(engine->Execute(s, "DELETE FROM t").ok());
  ASSERT_TRUE(engine->Prepare(s).ok());
  engine->InjectFailure(FailPoint::kNextCommit);
  EXPECT_EQ(engine->Commit(s).code(), StatusCode::kAborted);
  EXPECT_EQ(CountRows(engine.get(), s), 2);
  EXPECT_EQ(engine->stats().injected_failures, 1);
}

TEST(TxnTest, StatsAccumulate) {
  auto engine = MakeEngine(CapabilityProfile::IngresLike());
  SessionId s = *engine->OpenSession("db");
  ASSERT_TRUE(engine->Execute(s, "SELECT * FROM t").ok());
  ASSERT_TRUE(engine->Execute(s, "DELETE FROM t WHERE id = 1").ok());
  EXPECT_GE(engine->stats().statements_executed, 2);
  EXPECT_EQ(engine->stats().rows_read, 2);
  // 2 rows from the bootstrap INSERT + 1 deleted here.
  EXPECT_EQ(engine->stats().rows_written, 3);
  EXPECT_GE(engine->stats().commits, 2);  // two autocommits
}

// No session can create or drop a database: the statements do not
// parse, so a prepared transaction keeps its database and its promise.
TEST(TxnTest, DatabaseStatementsAreParseErrors) {
  auto engine = MakeEngine(CapabilityProfile::IngresLike());
  SessionId writer = *engine->OpenSession("db");
  ASSERT_TRUE(engine->Begin(writer).ok());
  ASSERT_TRUE(
      engine->Execute(writer, "UPDATE t SET v = 'w' WHERE id = 1").ok());
  ASSERT_TRUE(engine->Prepare(writer).ok());

  SessionId other = *engine->OpenSession("db");
  for (const char* sql : {"DROP DATABASE db", "CREATE DATABASE d2"}) {
    EXPECT_EQ(engine->Execute(other, sql).status().code(),
              StatusCode::kParseError)
        << sql;
  }
  EXPECT_EQ(engine->GetDatabase("d2").status().code(),
            StatusCode::kNotFound);

  ASSERT_TRUE(engine->Rollback(writer).ok());
  auto v = engine->Execute(other, "SELECT v FROM t WHERE id = 1");
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(v->rows[0][0], Value::Text("a"));
}

TEST(TxnTest, NoconnectServesSingleDefaultDatabase) {
  LocalEngine engine("svc", CapabilityProfile::SybaseLike());
  ASSERT_TRUE(engine.CreateDatabase("only").ok());
  // A second database is refused on NOCONNECT services.
  EXPECT_EQ(engine.CreateDatabase("more").code(),
            StatusCode::kInvalidArgument);
  // An empty name selects the default database.
  auto s = engine.OpenSession("");
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(engine.Execute(*s, "CREATE TABLE x (a INTEGER)").ok());
}

}  // namespace
}  // namespace msql::relational
