#ifndef MSQL_ANALYSIS_MSQL_CHECKER_H_
#define MSQL_ANALYSIS_MSQL_CHECKER_H_

#include "analysis/diagnostics.h"
#include "mdbs/auxiliary_directory.h"
#include "mdbs/global_data_dictionary.h"
#include "msql/ast.h"

namespace msql::analysis {

// ---------------------------------------------------------------------------
// MSQL semantic checker (MS1xx)
//
// Runs against a scope-resolved MsqlQuery (USE CURRENT already merged) and
// the AD/GDD catalogs, before expansion. Everything it reports is decidable
// statically — the motivation is failing ill-formed programs before they
// burn simulated-network round trips and retry budgets. Error codes are
// documented in DESIGN.md §8; the main classes:
//
//   MS101 unknown database            MS108 duplicate effective name
//   MS102 table resolves nowhere      MS109 COMP names a NON-VITAL db
//   MS103 column resolves nowhere     MS110 COMP names an unknown db
//   MS104 LET type mismatch           MS111 vital set unenforceable
//   MS105 '%' matches nothing         MS112 LET target missing in its db
//   MS106 '~' exists nowhere          MS113 LET arity mismatch
//   MS107 '~' exists everywhere       MS114 service not incorporated
//
// Table and column checks read the names lang::CollectIdentifiers
// inventories for the expander, so both see the same body.
//
// MS111 mirrors the Translator's last-resource rule (DESIGN.md §5): two or
// more VITAL databases that neither support 2PC (for this statement's verb)
// nor carry a COMP clause make failure atomicity unenforceable. Callers
// should surface it as a REFUSED outcome, not a hard error, to match the
// run-time refusal path.
// ---------------------------------------------------------------------------

/// Checks one multiple query. `query.use.entries` must be the resolved
/// scope (non-empty, no pending USE CURRENT).
DiagnosticList CheckQuery(const lang::MsqlQuery& query,
                          const mdbs::GlobalDataDictionary& gdd,
                          const mdbs::AuxiliaryDirectory& ad);

}  // namespace msql::analysis

#endif  // MSQL_ANALYSIS_MSQL_CHECKER_H_
