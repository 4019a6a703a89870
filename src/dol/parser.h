#ifndef MSQL_DOL_PARSER_H_
#define MSQL_DOL_PARSER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "dol/ast.h"
#include "relational/sql/parser.h"

namespace msql::dol {

/// Parses a DOL program:
///
///   DOLBEGIN
///     OPEN <db> AT <service> AS <alias>;
///     TASK <t> [NOCOMMIT] FOR <alias> { sql }
///       [COMPENSATION { sql }] ENDTASK;
///     PARBEGIN <stmts> PAREND;
///     IF (t1=P) AND (t3=P) THEN BEGIN ... END; ELSE BEGIN ... END;
///     COMMIT t1, t3;  ABORT t1;  COMPENSATE t1;
///     TRANSFER t1 TO coord TABLE tmp (col TYPE, ...);
///     DOLSTATUS = 0;
///     CLOSE cont delta;
///   DOLEND
///
/// Braced SQL bodies are captured as text (tokens re-rendered), so a
/// program printed by DolProgram::ToDol round-trips through this parser.
/// Nesting past kMaxDolNesting levels fails with kParseError.
Result<DolProgram> ParseDol(std::string_view text);

/// Deepest nesting ParseDol accepts. Each parenthesised condition, NOT,
/// IF body and PARBEGIN block is one level below what encloses it, and
/// each AND or OR one level above its deeper operand. The parser, the
/// engine, the verifier and ToDol recurse once per level, so this bound
/// keeps hostile input from overflowing the stack. It is the SQL
/// parser's expression limit. ToDol parenthesises every AND, OR and NOT,
/// so a bare chain of n of them re-renders 2n + 1 levels deep.
inline constexpr int kMaxDolNesting = 256;

/// Re-renders a token slice to SQL text (used for `{ ... }` bodies).
std::string RenderTokens(const std::vector<relational::Token>& tokens);

}  // namespace msql::dol

#endif  // MSQL_DOL_PARSER_H_
