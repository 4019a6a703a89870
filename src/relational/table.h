#ifndef MSQL_RELATIONAL_TABLE_H_
#define MSQL_RELATIONAL_TABLE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "relational/schema.h"
#include "relational/value.h"

namespace msql::relational {

class TableStorage;

/// A row is a vector of values positionally aligned with a TableSchema.
using Row = std::vector<Value>;

/// Stable identifier of a row inside one table (slot index). A slot is
/// only reused after its row has been tombstoned, and transaction undo
/// applies in reverse order, so undo records still name rows
/// unambiguously: any undo touching a reused slot is preceded by the
/// undo of the operations that reused it.
using RowId = uint64_t;

/// Heap-organized table: slot array with tombstones.
///
/// Mutations go through the RowId-based primitives so that the
/// transaction manager can record precise undo information (the inverse
/// primitive).
///
/// Two storage modes share this interface:
///   - in-memory (default): rows live in `slots_`, indexes are
///     std::map-backed — the original engine, still what most tests and
///     the netsim fixtures use;
///   - paged: rows live in a TableStorage heap file behind the engine's
///     buffer pool, every mutation is WAL-logged, and indexes are paged
///     B+-trees. Only rowid bookkeeping (free list, live count) stays
///     resident, so memory is bounded by the pool, not the data.
/// Rows are read by copy in both modes (ReadRow, ScanRows).
class Table {
 public:
  // Constructor and destructor are out of line: indexes_ holds the
  // incomplete Index type.
  explicit Table(TableSchema schema);
  ~Table();

  /// Builds a paged table over `storage`, rebuilding the rowid
  /// bookkeeping from the heap's directory (used both by CREATE TABLE
  /// and by recovery, where the heap already has rows).
  static Result<std::unique_ptr<Table>> CreatePaged(TableSchema schema,
                                                    TableStorage* storage);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const TableSchema& schema() const { return schema_; }

  bool paged() const { return storage_ != nullptr; }
  TableStorage* storage() const { return storage_; }

  /// Number of live (non-deleted) rows.
  size_t live_row_count() const { return live_count_; }

  /// Upper bound on RowIds ever allocated (for iteration).
  RowId slot_count() const {
    return storage_ != nullptr ? next_rowid_
                               : static_cast<RowId>(slots_.size());
  }

  /// Tombstoned slots currently available for reuse by Insert.
  size_t free_slot_count() const { return free_slots_.size(); }

  /// True if `id` names a live row.
  bool IsLive(RowId id) const {
    if (storage_ != nullptr) {
      return id < next_rowid_ && free_slots_.count(id) == 0;
    }
    return id < slots_.size() && slots_[id].has_value();
  }

  /// The live row at `id`, materialized (works in both modes).
  Result<Row> ReadRow(RowId id) const;

  /// Appends a row after coercing each value to its column type.
  /// Fails if the arity or a value type does not match.
  Result<RowId> Insert(Row row);

  /// Re-occupies a previously deleted slot with its original content
  /// (transaction undo of a delete). Fails if the slot is live.
  Status ResurrectRow(RowId id, Row row);

  /// Tombstones a live row, returning its content for the undo log.
  Result<Row> Delete(RowId id);

  /// Replaces a live row's content, returning the before-image.
  Result<Row> Update(RowId id, Row new_row);

  /// All live RowIds in slot order (deterministic scan order).
  std::vector<RowId> ScanRowIds() const;

  /// All live rows in slot order (copy; paged tables materialize every
  /// row — the planner's scan access path, while index probes stay
  /// bounded).
  Result<std::vector<Row>> ScanRows() const;

  // -- Secondary indexes ------------------------------------------------

  /// Creates an index named `index_name` over `column`, populated from
  /// the current rows. Fails on duplicate name or unknown column.
  Status CreateIndex(std::string_view index_name, std::string_view column);

  /// Re-creates a paged index without logging DDL (crash recovery —
  /// the catalog record that mandates it is already in the WAL).
  Status RestoreIndex(std::string_view index_name, std::string_view column);

  /// Drops the index (its column name is returned so DDL undo can
  /// rebuild it).
  Result<std::string> DropIndex(std::string_view index_name);

  bool HasIndex(std::string_view index_name) const;
  std::vector<std::string> IndexNames() const;

  /// An index over the named column, or nullptr.
  const class Index* FindIndexOnColumn(std::string_view column) const;

 private:
  Table(TableSchema schema, TableStorage* storage);

  /// Checks arity and coerces values to the schema's column types.
  Result<Row> Normalize(Row row) const;

  /// Rebuilds next_rowid_/free_slots_/live_count_ from the heap.
  Status LoadFromStorage();

  Status CreateIndexInternal(std::string_view index_name,
                             std::string_view column, bool log_ddl);

  Status IndexInsert(const Row& row, RowId id);
  Status IndexErase(const Row& row, RowId id);

  TableSchema schema_;
  TableStorage* storage_ = nullptr;  // non-owning; null = in-memory
  std::vector<std::optional<Row>> slots_;
  /// Tombstoned slots eligible for reuse, lowest first (deterministic).
  /// Without this, update/delete-heavy sessions grow `slots_`
  /// monotonically: unbounded memory and ever-slower slot iteration.
  /// Paged tables use it the same way over heap tombstones.
  std::set<RowId> free_slots_;
  /// Paged mode: first never-allocated rowid.
  RowId next_rowid_ = 0;
  size_t live_count_ = 0;
  std::map<std::string, std::unique_ptr<class Index>> indexes_;
};

}  // namespace msql::relational

#endif  // MSQL_RELATIONAL_TABLE_H_
