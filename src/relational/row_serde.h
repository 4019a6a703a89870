#ifndef MSQL_RELATIONAL_ROW_SERDE_H_
#define MSQL_RELATIONAL_ROW_SERDE_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "relational/table.h"
#include "relational/value.h"

namespace msql::relational {

/// Row ↔ bytes for the paged heap. Self-describing: per value a type
/// tag, then a fixed (integer/real) or length-prefixed (text) payload,
/// so deserialization needs no schema.
std::string SerializeRow(const Row& row);
Result<Row> DeserializeRow(std::string_view bytes);

/// Order-preserving byte encoding of one index key value: for values
/// of a single column type (plus NULLs, which sort first), the
/// lexicographic order of encodings matches Value::Compare, and
/// Compare-equal keys (-0.0 and 0.0, NaNs of any sign) encode alike. Text is
/// 0x00-escaped and terminated so no encoding is a strict prefix of
/// another — a range scan over `v` never leaks keys of longer strings
/// that merely start with `v`.
std::string EncodeIndexKey(const Value& v);

/// EncodeIndexKey + the big-endian row id appended: the unique
/// composite key stored in the B+-tree (multimap semantics).
std::string EncodeIndexEntry(const Value& v, RowId id);

/// Row id back out of a composite entry's last 8 bytes.
RowId DecodeIndexEntryRowId(std::string_view entry);

}  // namespace msql::relational

#endif  // MSQL_RELATIONAL_ROW_SERDE_H_
