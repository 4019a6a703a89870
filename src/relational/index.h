#ifndef MSQL_RELATIONAL_INDEX_H_
#define MSQL_RELATIONAL_INDEX_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/table.h"
#include "relational/value.h"

namespace msql::relational {

/// Ordered secondary index over one column: value → live RowIds.
///
/// Maintained eagerly by the owning Table on every insert/delete/update;
/// the planner probes it for pushed `col = literal` conjuncts. NULL
/// keys are indexed too (IS NULL cannot use it — only `=` probes do, and
/// `= NULL` never matches — but keeping them makes maintenance uniform).
///
/// The base class is the in-memory implementation (a std::map). Paged
/// tables substitute BtreeIndex (storage_engine.h), which overrides the
/// virtual surface with a page-backed B+-tree; the executor and planner
/// only use that surface (LookupIds / distinct_keys), so they work
/// against either.
class Index {
 public:
  Index(std::string name, size_t column_index)
      : name_(std::move(name)), column_index_(column_index) {}
  virtual ~Index() = default;

  Index(const Index&) = delete;
  Index& operator=(const Index&) = delete;

  const std::string& name() const { return name_; }
  size_t column_index() const { return column_index_; }

  virtual Status Insert(const Value& key, RowId id) {
    entries_[key].push_back(id);
    return Status::OK();
  }

  virtual Status Erase(const Value& key, RowId id) {
    auto it = entries_.find(key);
    if (it == entries_.end()) return Status::OK();
    auto& ids = it->second;
    for (size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] == id) {
        ids.erase(ids.begin() + static_cast<ptrdiff_t>(i));
        break;
      }
    }
    if (ids.empty()) entries_.erase(it);
    return Status::OK();
  }

  /// RowIds whose column equals `key`, in insertion order (empty when
  /// none).
  virtual Result<std::vector<RowId>> LookupIds(const Value& key) const {
    auto it = entries_.find(key);
    if (it == entries_.end()) return std::vector<RowId>{};
    return it->second;
  }

  virtual size_t distinct_keys() const { return entries_.size(); }

 protected:
  struct ValueLess {
    bool operator()(const Value& a, const Value& b) const {
      return a.Compare(b) < 0;
    }
  };
  std::string name_;
  size_t column_index_;
  std::map<Value, std::vector<RowId>, ValueLess> entries_;
};

}  // namespace msql::relational

#endif  // MSQL_RELATIONAL_INDEX_H_
