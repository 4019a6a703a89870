#ifndef MSQL_RELATIONAL_INDEX_H_
#define MSQL_RELATIONAL_INDEX_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "relational/table.h"
#include "relational/value.h"

namespace msql::relational {

/// Secondary index over one column: value → live RowIds.
///
/// Maintained eagerly by the owning Table on every insert/delete/update;
/// the planner probes it for pushed `col = literal` conjuncts. NULL
/// keys are indexed too (IS NULL cannot use it — only `=` probes do, and
/// `= NULL` never matches — but keeping them makes maintenance uniform).
///
/// An interface: each row store builds its own (RowStore::BuildIndex) —
/// an ordered map in memory for the in-memory store, a page-backed
/// B+-tree (BtreeIndex, storage_engine.h) for the paged one. The
/// executor and planner only use this surface.
class Index {
 public:
  Index(std::string name, size_t column_index)
      : name_(std::move(name)), column_index_(column_index) {}
  virtual ~Index() = default;

  Index(const Index&) = delete;
  Index& operator=(const Index&) = delete;

  const std::string& name() const { return name_; }
  size_t column_index() const { return column_index_; }

  virtual Status Insert(const Value& key, RowId id) = 0;
  virtual Status Erase(const Value& key, RowId id) = 0;

  /// RowIds whose column equals `key`, ascending (empty when none). A
  /// probe therefore fetches rows in the order a scan meets them, which
  /// the planner's order restoration (DESIGN.md §10) relies on.
  virtual Result<std::vector<RowId>> LookupIds(const Value& key) const = 0;

  /// Number of distinct keys (the planner's selectivity input).
  virtual size_t distinct_keys() const = 0;

 private:
  std::string name_;
  size_t column_index_;
};

}  // namespace msql::relational

#endif  // MSQL_RELATIONAL_INDEX_H_
