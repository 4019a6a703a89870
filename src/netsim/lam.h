#ifndef MSQL_NETSIM_LAM_H_
#define MSQL_NETSIM_LAM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "relational/engine.h"
#include "relational/result_set.h"
#include "relational/txn.h"

namespace msql::netsim {

/// Request verbs of the engine ↔ LAM wire protocol (Figure 1).
///
/// The DOL engine sends these over the simulated network; a LAM executes
/// them against its local engine and ships back a response. TASK bodies
/// become kExecute requests, and so do a TRANSFER's CREATE TABLE and its
/// typed INSERT; NOCOMMIT tasks are bracketed by kBegin and later
/// kPrepare; the status checks in DOL IF conditions use kQueryTxnState.
enum class LamRequestType {
  kPing,
  kOpenSession,
  kCloseSession,
  kExecute,
  kBegin,
  kPrepare,
  kCommit,
  kRollback,
  kQueryTxnState,
  /// Schema introspection used by IMPORT: returns one row per column of
  /// the named table (or of every table when `sql` is empty) in the form
  /// (table_name, column_name, type_name, width).
  kDescribe,
  /// View introspection used by IMPORT VIEW: same row format, for the
  /// view named in `sql` (required).
  kDescribeView,
  /// Statistics gathering used by ANALYZE: scans the named table (or
  /// every table when `sql` is empty) and returns one row per column in
  /// the form (table_name, column_name, row_count, distinct_values,
  /// min_value, max_value, avg_width_bytes). Widths follow the
  /// LamResponse::WireBytes accounting (display bytes + 4 framing).
  kAnalyze,
};

std::string_view LamRequestTypeName(LamRequestType type);

/// One request message.
struct LamRequest {
  LamRequestType type = LamRequestType::kPing;
  /// Target database (kOpenSession only).
  std::string database;
  /// Session the request applies to (all but kOpenSession/kPing).
  relational::SessionId session = 0;
  /// SQL text (kExecute only).
  std::string sql;
  /// kExecute only, in place of `sql`: an INSERT whose rows are typed
  /// values (InsertStmt::typed_rows), as a TRANSFER ships its source
  /// task's result. Borrowed: the request is copied for every send and
  /// retry, so the statement and its rows must outlive the call. The LAM
  /// runs it through LocalEngine::ExecuteStatement, the path a parsed
  /// INSERT takes after its parse.
  const relational::InsertStmt* insert = nullptr;

  /// Modelled wire size in bytes (for the latency model): 32 for verb
  /// and header, then the database name and the SQL text. A typed
  /// `insert` counts as the text that would carry it, `INSERT INTO t
  /// [(c, ...)] VALUES (v, ...), ...` with each value as its SQL literal
  /// (relational::LiteralWidth), measured without building it.
  int64_t WireBytes() const;
};

/// One response message.
struct LamResponse {
  Status status;
  relational::ResultSet result;          // kExecute responses
  relational::SessionId session = 0;     // kOpenSession responses
  relational::TxnState txn_state = relational::TxnState::kCommitted;
  /// kBusy responses: local sessions whose transactions hold the locks
  /// this request would block on. The coordinator maps them back to
  /// federation sessions to build waits-for edges.
  std::vector<relational::SessionId> blocked_by;

  /// Modelled wire size in bytes: 64 for the header, the status message,
  /// 8 per blocker, and 4 framing bytes per column name and per value on
  /// top of its display text (relational::DisplayWidth).
  int64_t WireBytes() const;
};

/// Local Access Manager: the per-service agent that executes commands
/// against one autonomous LDBMS and reports results/states back (§4.1).
/// The wrapped engine is owned and *not* modified — it keeps its full
/// autonomy (local clients could use it directly).
class Lam {
 public:
  Lam(std::string service_name, std::string site_name,
      std::unique_ptr<relational::LocalEngine> engine);

  const std::string& service_name() const { return service_name_; }
  const std::string& site_name() const { return site_name_; }
  relational::LocalEngine* engine() { return engine_.get(); }
  const relational::LocalEngine* engine() const { return engine_.get(); }

  /// Handles one request; `service_micros` (optional) receives the
  /// modelled local service time (added to network latency): a fixed
  /// dispatch cost plus per-row costs for the rows returned or written
  /// and for the rows scanned.
  LamResponse Handle(const LamRequest& request,
                     int64_t* service_micros = nullptr);

 private:
  std::string service_name_;
  std::string site_name_;
  std::unique_ptr<relational::LocalEngine> engine_;
};

}  // namespace msql::netsim

#endif  // MSQL_NETSIM_LAM_H_
