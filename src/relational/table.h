#ifndef MSQL_RELATIONAL_TABLE_H_
#define MSQL_RELATIONAL_TABLE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "relational/schema.h"
#include "relational/value.h"

namespace msql::relational {

class Index;

/// A row is a vector of values positionally aligned with a TableSchema.
using Row = std::vector<Value>;

/// Stable identifier of a row inside one table (slot index). A slot is
/// only reused after its row has been tombstoned, and transaction undo
/// applies in reverse order, so undo records still name rows
/// unambiguously: any undo touching a reused slot is preceded by the
/// undo of the operations that reused it.
using RowId = uint64_t;

/// A scan's callback: one live row, borrowed for the call.
using RowVisitor = std::function<Status(RowId, const Row&)>;

/// Where a Table keeps its row images. The Table decides which rowid a
/// row occupies and which rowids are live; a store holds the image at
/// each rowid it is given and builds the table's indexes over them.
///
/// Two implementations: the in-memory slot vector (NewMemoryRowStore)
/// and the paged TableStorage (storage_engine.h), which WAL-logs every
/// change and keeps rows in a heap file behind the engine's buffer pool.
class RowStore {
 public:
  RowStore() = default;
  virtual ~RowStore() = default;

  RowStore(const RowStore&) = delete;
  RowStore& operator=(const RowStore&) = delete;

  /// Stores `row` at the free rowid `id`.
  virtual Status Insert(RowId id, Row row) = 0;
  /// Replaces the live row at `id`, returning the before-image.
  virtual Result<Row> Update(RowId id, Row row) = 0;
  /// Removes the live row at `id`, returning it.
  virtual Result<Row> Delete(RowId id) = 0;
  /// The live row at `id`.
  virtual Result<Row> Read(RowId id) const = 0;

  /// Calls `fn(id, row)` for every live row, in rowid order, stopping at
  /// the first error. The row is lent for the call only: the memory
  /// store passes its slot, the paged store the row it just decoded.
  virtual Status ScanLive(const RowVisitor& fn) const = 0;
  /// Calls `fn(id, live)` for every rowid the store has held, live or
  /// tombstoned, in rowid order.
  virtual Status ScanSlots(
      const std::function<Status(RowId, bool)>& fn) const = 0;

  /// A new index named `index_name` over `column` (at `column_index`),
  /// populated from the live rows.
  virtual Result<std::unique_ptr<Index>> BuildIndex(
      const std::string& index_name, const ColumnDef& column,
      size_t column_index) = 0;
  /// Records that the index `index_name` was dropped.
  virtual Status DropIndex(const std::string& index_name) = 0;
};

/// An empty store that keeps rows in memory.
std::unique_ptr<RowStore> NewMemoryRowStore();

/// Heap-organized table over a RowStore it owns: slot array with
/// tombstones.
///
/// Mutations go through the RowId-based primitives so that the
/// transaction manager can record precise undo information (the inverse
/// primitive). The Table keeps, for every store alike, the rowid
/// allocation (lowest free slot first), the live count and index
/// maintenance; rows are read by copy (ReadRow, ScanRows) or lent to a
/// scan's callback (Scan). Owning the store means a paged table
/// incarnation (one heap file) lives exactly as long as the catalog or
/// an undo record holds its Table.
class Table {
 public:
  /// A table over `store`, with the rowid bookkeeping rebuilt from the
  /// slots the store already holds (none for a new table, the replayed
  /// heap for a recovered one).
  static Result<std::unique_ptr<Table>> Open(TableSchema schema,
                                             std::unique_ptr<RowStore> store);
  // Out of line: indexes_ holds the incomplete Index type.
  ~Table();

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const TableSchema& schema() const { return schema_; }

  /// Number of live (non-deleted) rows.
  size_t live_row_count() const { return live_count_; }

  /// Upper bound on RowIds ever allocated (for iteration).
  RowId slot_count() const { return next_rowid_; }

  /// Tombstoned slots currently available for reuse by Insert.
  size_t free_slot_count() const { return free_slots_.size(); }

  /// True if `id` names a live row.
  bool IsLive(RowId id) const {
    return id < next_rowid_ && free_slots_.count(id) == 0;
  }

  /// The live row at `id`, materialized.
  Result<Row> ReadRow(RowId id) const;

  /// Appends a row after coercing each value to its column type.
  /// Fails if the arity or a value type does not match.
  Result<RowId> Insert(Row row);

  /// Re-occupies a previously deleted slot with its original content
  /// (transaction undo of a delete). Fails if the slot is live.
  Status ResurrectRow(RowId id, Row row);

  /// Tombstones a live row, returning its content for the undo log.
  Result<Row> Delete(RowId id);

  /// Replaces a live row's content, returning the before-image. When an
  /// index rejects the new key, the before-image and its keys are put
  /// back and the index's error is returned.
  Result<Row> Update(RowId id, Row new_row);

  /// Lends every live row to `fn`, in slot order (the planner's scan
  /// access path: it copies only the rows its filters keep).
  Status Scan(const RowVisitor& fn) const { return store_->ScanLive(fn); }

  /// All live rows in slot order, copied.
  Result<std::vector<Row>> ScanRows() const;

  // -- Secondary indexes ------------------------------------------------

  /// Creates an index named `index_name` over `column`, populated from
  /// the current rows. Fails on duplicate name or unknown column.
  Status CreateIndex(std::string_view index_name, std::string_view column);

  /// Drops the index (its column name is returned so DDL undo can
  /// rebuild it).
  Result<std::string> DropIndex(std::string_view index_name);

  bool HasIndex(std::string_view index_name) const;
  std::vector<std::string> IndexNames() const;

  /// An index over the named column, or nullptr.
  const Index* FindIndexOnColumn(std::string_view column) const;

 private:
  Table(TableSchema schema, std::unique_ptr<RowStore> store);

  /// Checks arity and coerces values to the schema's column types.
  Result<Row> Normalize(Row row) const;

  /// Bookkeeping for a row just stored at the free or fresh rowid `id`.
  void MarkLive(RowId id);

  /// Each index paired with its key in a row. Taken before the row
  /// moves into the store, so no store has to copy it.
  using IndexKeys = std::vector<std::pair<Index*, Value>>;
  IndexKeys KeysOf(const Row& row) const;

  Status IndexInsert(const IndexKeys& keys, RowId id);
  Status IndexErase(const Row& row, RowId id);

  TableSchema schema_;
  std::unique_ptr<RowStore> store_;
  /// Tombstoned slots eligible for reuse, lowest first (deterministic).
  /// Without this, update/delete-heavy sessions grow the slot range
  /// monotonically: unbounded memory and ever-slower slot iteration.
  std::set<RowId> free_slots_;
  /// First never-allocated rowid.
  RowId next_rowid_ = 0;
  size_t live_count_ = 0;
  std::map<std::string, std::unique_ptr<Index>> indexes_;
};

}  // namespace msql::relational

#endif  // MSQL_RELATIONAL_TABLE_H_
