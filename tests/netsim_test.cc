// Simulated network, LAM wire protocol and RPC timing model.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "netsim/environment.h"
#include "netsim/lam.h"
#include "netsim/network.h"
#include "relational/engine.h"

namespace msql::netsim {
namespace {

using relational::CapabilityProfile;
using relational::LocalEngine;
using relational::TxnState;

TEST(NetworkTest, DefaultAndExplicitLinks) {
  Network net;
  net.AddSite("a");
  net.AddSite("b");
  LinkParams fast;
  fast.latency_micros = 10;
  fast.micros_per_kb = 1;
  ASSERT_TRUE(net.SetLink("a", "b", fast).ok());
  EXPECT_EQ(net.GetLink("a", "b").latency_micros, 10);
  // Reverse direction falls back to the default.
  EXPECT_EQ(net.GetLink("b", "a").latency_micros,
            net.default_link().latency_micros);
}

TEST(NetworkTest, TransferAccountsBytesAndMessages) {
  Network net;
  net.AddSite("a");
  net.AddSite("b");
  LinkParams link;
  link.latency_micros = 100;
  link.micros_per_kb = 1024;  // 1 us per byte
  ASSERT_TRUE(net.SetLink("a", "b", link).ok());
  auto micros = net.TransferMicros("a", "b", 2048);
  ASSERT_TRUE(micros.ok());
  EXPECT_EQ(*micros, 100 + 2048);
  EXPECT_EQ(net.stats().messages_sent, 1);
  EXPECT_EQ(net.stats().bytes_sent, 2048);
}

TEST(NetworkTest, DownSitesAreUnavailable) {
  Network net;
  net.AddSite("a");
  net.AddSite("b");
  ASSERT_TRUE(net.SetSiteDown("b", true).ok());
  EXPECT_EQ(net.TransferMicros("a", "b", 10).status().code(),
            StatusCode::kUnavailable);
  ASSERT_TRUE(net.SetSiteDown("b", false).ok());
  EXPECT_TRUE(net.TransferMicros("a", "b", 10).ok());
  EXPECT_EQ(net.TransferMicros("a", "ghost", 10).status().code(),
            StatusCode::kUnavailable);
}

// Regression: SetSiteDown/SetLink used to silently no-op on unknown
// sites, so a typoed chaos script "partitioned" nothing and the test
// that relied on it exercised the healthy path.
TEST(NetworkTest, TogglingUnknownSitesIsAnError) {
  Network net;
  net.AddSite("a");
  EXPECT_EQ(net.SetSiteDown("ghost", true).code(), StatusCode::kNotFound);
  LinkParams link;
  EXPECT_EQ(net.SetLink("a", "ghost", link).code(), StatusCode::kNotFound);
  EXPECT_EQ(net.SetLink("ghost", "a", link).code(), StatusCode::kNotFound);
  EXPECT_TRUE(net.SetLink("a", "a", link).ok());
}

// Regression: the serialization charge was computed with truncating
// integer division, so sub-KB payloads (every LAM control message)
// transferred in zero simulated time.
TEST(NetworkTest, SubKilobytePayloadsAreNotFree) {
  Network net;
  net.AddSite("a");
  net.AddSite("b");
  LinkParams link;
  link.latency_micros = 0;
  link.micros_per_kb = 1000;
  ASSERT_TRUE(net.SetLink("a", "b", link).ok());
  auto one_byte = net.TransferMicros("a", "b", 1);
  ASSERT_TRUE(one_byte.ok());
  EXPECT_EQ(*one_byte, 1);  // ceil(1 * 1000 / 1024)
  auto half_kb = net.TransferMicros("a", "b", 512);
  ASSERT_TRUE(half_kb.ok());
  EXPECT_EQ(*half_kb, 500);  // ceil(512 * 1000 / 1024)
}

// Regression: bytes * micros_per_kb was multiplied in int64, which
// overflows for large payloads on slow links; the weighted product now
// goes through a 128-bit intermediate.
TEST(NetworkTest, HugeTransfersDoNotOverflow) {
  Network net;
  net.AddSite("a");
  net.AddSite("b");
  LinkParams link;
  link.latency_micros = 7;
  link.micros_per_kb = 2'000'000'000;  // pathological slow link
  ASSERT_TRUE(net.SetLink("a", "b", link).ok());
  // 5 GB * 2e9 us/KB = 1e19 weighted micros·bytes/KB — past INT64_MAX.
  auto micros = net.TransferMicros("a", "b", 5'000'000'000);
  ASSERT_TRUE(micros.ok());
  EXPECT_EQ(*micros, 7 + 9'765'625'000'000'000);
  EXPECT_EQ(net.TransferMicros("a", "b", -1).status().code(),
            StatusCode::kInvalidArgument);
}

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

TEST(LamTest, ExecuteRoundTrip) {
  Lam lam("svc", "site1", SeededEngine());
  LamRequest open;
  open.type = LamRequestType::kOpenSession;
  open.database = "db";
  LamResponse opened = lam.Handle(open);
  ASSERT_TRUE(opened.status.ok());
  ASSERT_NE(opened.session, 0u);

  LamRequest exec;
  exec.type = LamRequestType::kExecute;
  exec.session = opened.session;
  exec.sql = "SELECT v FROM t ORDER BY id";
  int64_t service_micros = 0;
  LamResponse result = lam.Handle(exec, &service_micros);
  ASSERT_TRUE(result.status.ok());
  ASSERT_EQ(result.result.rows.size(), 2u);
  EXPECT_GT(service_micros, 0);
}

TEST(LamTest, TransactionVerbsAndStateReporting) {
  Lam lam("svc", "site1", SeededEngine());
  LamRequest open;
  open.type = LamRequestType::kOpenSession;
  open.database = "db";
  auto session = lam.Handle(open).session;

  LamRequest begin{LamRequestType::kBegin, "", session, ""};
  EXPECT_TRUE(lam.Handle(begin).status.ok());
  LamRequest exec{LamRequestType::kExecute, "", session,
                  "DELETE FROM t WHERE id = 1"};
  LamResponse exec_resp = lam.Handle(exec);
  EXPECT_TRUE(exec_resp.status.ok());
  EXPECT_EQ(exec_resp.txn_state, TxnState::kActive);
  LamRequest prepare{LamRequestType::kPrepare, "", session, ""};
  EXPECT_EQ(lam.Handle(prepare).txn_state, TxnState::kPrepared);
  LamRequest rollback{LamRequestType::kRollback, "", session, ""};
  EXPECT_EQ(lam.Handle(rollback).txn_state, TxnState::kAborted);
}

/// The INSERT text a TRANSFER once built for `rows`: the layout the wire
/// model of a typed INSERT charges.
std::string InsertText(const std::string& table,
                       const std::vector<std::string>& columns,
                       const std::vector<relational::Row>& rows) {
  std::string text = "INSERT INTO " + table;
  if (!columns.empty()) {
    text += " (";
    for (size_t i = 0; i < columns.size(); ++i) {
      text += (i > 0 ? ", " : "") + columns[i];
    }
    text += ")";
  }
  text += " VALUES ";
  for (size_t r = 0; r < rows.size(); ++r) {
    text += r > 0 ? ", (" : "(";
    for (size_t c = 0; c < rows[r].size(); ++c) {
      text += (c > 0 ? ", " : "") + rows[r][c].ToSqlLiteral();
    }
    text += ")";
  }
  return text;
}

TEST(LamTest, TypedInsertIsChargedTheTextThatWouldCarryIt) {
  using relational::Value;
  const std::vector<relational::Row> rows = {
      {Value::Integer(INT64_MIN), Value::Text("o'hare"),
       Value::Real(-0.0)},
      {Value::Null_(), Value::Text(""),
       Value::Real(std::numeric_limits<double>::infinity())},
      {Value::Integer(42), Value::Text("''"), Value::Real(5e-324)},
      {Value::Integer(-7), Value::Null_(), Value::Real(0.1)}};
  for (const std::vector<std::string>& columns :
       {std::vector<std::string>{}, std::vector<std::string>{"a", "bb", "c"}}) {
    relational::InsertStmt insert;
    insert.table.table = "mdbs_tmp_avis";
    insert.columns = columns;
    insert.typed_rows = &rows;
    LamRequest request;
    request.type = LamRequestType::kExecute;
    request.database = "avis";
    request.insert = &insert;
    const std::string text = InsertText("mdbs_tmp_avis", columns, rows);
    EXPECT_EQ(request.WireBytes(), 32 + 4 + static_cast<int64_t>(text.size()));
  }
}

TEST(LamTest, TypedInsertRunsThroughTheEngine) {
  using relational::Value;
  auto engine = SeededEngine();
  LocalEngine* local = engine.get();
  Lam lam("svc", "site1", std::move(engine));
  LamRequest open;
  open.type = LamRequestType::kOpenSession;
  open.database = "db";
  const relational::SessionId session = lam.Handle(open).session;

  // INT64_MIN has no SQL literal; a typed row carries it as it is. The
  // REAL 3.0 is coerced to the INTEGER column, as a parsed INSERT's is.
  const std::vector<relational::Row> rows = {
      {Value::Integer(INT64_MIN), Value::Text("it's")},
      {Value::Real(3.0), Value::Null_()}};
  relational::InsertStmt insert;
  insert.table.table = "t";
  insert.typed_rows = &rows;
  LamRequest request;
  request.type = LamRequestType::kExecute;
  request.session = session;
  request.insert = &insert;
  const relational::EngineStats before = local->stats();
  LamResponse inserted = lam.Handle(request);
  ASSERT_TRUE(inserted.status.ok()) << inserted.status;
  EXPECT_EQ(inserted.result.rows_affected, 2);
  EXPECT_EQ(local->stats().statements_executed,
            before.statements_executed + 1);
  EXPECT_EQ(local->stats().sql_bytes_parsed, before.sql_bytes_parsed);

  auto read = local->Execute(session, "SELECT id, v FROM t WHERE id < 1 OR "
                                      "v IS NULL ORDER BY id");
  ASSERT_TRUE(read.ok()) << read.status();
  ASSERT_EQ(read->rows.size(), 2u);
  EXPECT_EQ(read->rows[0][0], Value::Integer(INT64_MIN));
  EXPECT_EQ(read->rows[0][1], Value::Text("it's"));
  EXPECT_TRUE(read->rows[1][0].is_integer());
  EXPECT_EQ(read->rows[1][0], Value::Integer(3));

  // A row the column cannot hold fails the whole statement: the
  // autocommit transaction rolls back the row before it too.
  const std::vector<relational::Row> bad = {
      {Value::Integer(7), Value::Text("kept?")},
      {Value::Real(2.5), Value::Text("x")}};
  insert.typed_rows = &bad;
  EXPECT_EQ(lam.Handle(request).status.code(), StatusCode::kInvalidArgument);
  // Inside an explicit transaction, ROLLBACK undoes typed rows.
  ASSERT_TRUE(lam.Handle({LamRequestType::kBegin, "", session, ""})
                  .status.ok());
  insert.typed_rows = &rows;
  ASSERT_TRUE(lam.Handle(request).status.ok());
  ASSERT_TRUE(lam.Handle({LamRequestType::kRollback, "", session, ""})
                  .status.ok());
  // The injected statement failure refuses a typed INSERT too.
  local->InjectFailure(relational::FailPoint::kNextStatement);
  EXPECT_EQ(lam.Handle(request).status.code(), StatusCode::kAborted);
  auto count = local->Execute(session, "SELECT COUNT(*) FROM t");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0], Value::Integer(4));  // 2 seeded + 2 above
}

TEST(LamTest, DescribeListsSchemas) {
  Lam lam("svc", "site1", SeededEngine());
  LamRequest describe;
  describe.type = LamRequestType::kDescribe;
  describe.database = "db";
  LamResponse resp = lam.Handle(describe);
  ASSERT_TRUE(resp.status.ok());
  ASSERT_EQ(resp.result.rows.size(), 2u);  // id, v
  EXPECT_EQ(resp.result.rows[0][0].AsText(), "t");
  EXPECT_EQ(resp.result.rows[0][1].AsText(), "id");
  EXPECT_EQ(resp.result.rows[0][2].AsText(), "INTEGER");
}

TEST(LamTest, DescribeUnknownDatabaseFails) {
  Lam lam("svc", "site1", SeededEngine());
  LamRequest describe;
  describe.type = LamRequestType::kDescribe;
  describe.database = "ghost";
  EXPECT_EQ(lam.Handle(describe).status.code(), StatusCode::kNotFound);
}

TEST(EnvironmentTest, CallModelsRoundTripTiming) {
  Environment env;
  LinkParams link;
  link.latency_micros = 500;
  link.micros_per_kb = 0;
  env.network().set_default_link(link);
  ASSERT_TRUE(env.AddService("svc", "site1", SeededEngine()).ok());

  LamRequest ping;
  ping.type = LamRequestType::kPing;
  auto outcome = env.Call("svc", ping, /*at_micros=*/1000);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->timing.start_micros, 1000);
  // request latency + service + response latency.
  EXPECT_EQ(outcome->timing.request_micros, 500);
  EXPECT_EQ(outcome->timing.response_micros, 500);
  EXPECT_EQ(outcome->timing.end_micros,
            1000 + 500 + outcome->timing.service_micros + 500);
}

TEST(EnvironmentTest, UnknownServiceAndDownSite) {
  Environment env;
  ASSERT_TRUE(env.AddService("svc", "site1", SeededEngine()).ok());
  LamRequest ping;
  ping.type = LamRequestType::kPing;
  EXPECT_EQ(env.Call("ghost", ping, 0).status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(env.network().SetSiteDown("site1", true).ok());
  EXPECT_EQ(env.Call("svc", ping, 0).status().code(),
            StatusCode::kUnavailable);
}

TEST(EnvironmentTest, DirectoryEntries) {
  Environment env;
  ASSERT_TRUE(env.AddService("svc", "site1", SeededEngine()).ok());
  auto entry = env.GetServiceEntry("svc");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ((*entry)->site_name, "site1");
  EXPECT_EQ(env.ServiceNames(), (std::vector<std::string>{"svc"}));
  EXPECT_TRUE(env.HasService("SVC"));  // case-insensitive
  EXPECT_FALSE(env.AddService("svc", "site2", SeededEngine()).ok());
}

TEST(EnvironmentTest, ResponseBytesScaleWithResultSize) {
  Environment env;
  LinkParams link;
  link.latency_micros = 0;
  link.micros_per_kb = 1024;  // 1 us per byte to make sizes visible
  env.network().set_default_link(link);
  ASSERT_TRUE(env.AddService("svc", "site1", SeededEngine()).ok());

  LamRequest open;
  open.type = LamRequestType::kOpenSession;
  open.database = "db";
  auto opened = env.Call("svc", open, 0);
  ASSERT_TRUE(opened.ok());

  LamRequest small;
  small.type = LamRequestType::kExecute;
  small.session = opened->response.session;
  small.sql = "SELECT v FROM t WHERE id = 1";
  LamRequest big = small;
  big.sql = "SELECT v FROM t";
  auto small_out = env.Call("svc", small, 0);
  auto big_out = env.Call("svc", big, 0);
  ASSERT_TRUE(small_out.ok());
  ASSERT_TRUE(big_out.ok());
  EXPECT_GT(big_out->timing.response_micros,
            small_out->timing.response_micros);
}

}  // namespace
}  // namespace msql::netsim
