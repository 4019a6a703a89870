#ifndef MSQL_STORAGE_BTREE_H_
#define MSQL_STORAGE_BTREE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "common/result.h"
#include "storage/buffer_manager.h"
#include "storage/page.h"

namespace msql::storage {

/// Keys above this never enter the tree (a page must fit several
/// cells or splitting degenerates).
inline constexpr uint32_t kMaxBtreeKeyBytes = 900;

/// Paged B+-tree over opaque, unique byte-string keys (lexicographic
/// order). Secondary indexes get multimap semantics by appending the
/// 8-byte row id to the encoded column value, which also makes every
/// entry unique. Leaves are chained for range scans. Underflow is
/// never rebalanced (deletes just shrink a node) — acceptable for the
/// paper's workloads and it keeps the structure recovery-free: index
/// files are rebuilt from a heap scan after a crash, so tree pages
/// carry no LSNs.
///
/// Layout: page 0 is the meta page (magic, root id). Node pages hold a
/// sorted slot array pointing at cells growing down from the page end:
///   leaf cell      [klen u16][key bytes]
///   internal cell  [klen u16][key bytes][child u32]
/// An internal node keeps its leftmost child in the header; cell i
/// routes keys >= its key to its child. Header bytes 12–15 hold the
/// cell top, the offset of the lowest cell byte.
///
/// Every operation binary-searches the pinned frame's slot array and
/// edits it in place: an insert writes its cell below the cell top and
/// shifts the slots after it, an erase drops its slot and leaves the
/// cell bytes behind. A node is repacked only when an insert finds the
/// gap between slot array and cell top too small for its cell but the
/// node's live cells leave room; otherwise it splits in half by cell
/// count.
class BTree {
 public:
  BTree(BufferManager* pool, uint32_t file_id) noexcept
      : pool_(pool), file_id_(file_id) {}

  /// Initializes a brand-new file (meta page + empty root leaf).
  Status Create();

  /// Makes the tree empty regardless of the file's prior content:
  /// Create() on a fresh file, otherwise the meta page is rewritten to
  /// point at a new empty root (old pages become unreachable — index
  /// files are rebuilt wholesale after a crash, never compacted).
  Status Reset();

  /// Inserts `key` (no-op when already present). Returns whether the
  /// tree already held a key starting with the first `prefix_len`
  /// bytes of `key` — true for a duplicate.
  Result<bool> Insert(std::string_view key, size_t prefix_len = 0);

  /// Removes `key` (no-op when absent). Returns false exactly when it
  /// removed the tree's last key starting with the first `prefix_len`
  /// bytes of `key`, so a caller counting distinct prefixes stays
  /// exact.
  Result<bool> Erase(std::string_view key, size_t prefix_len = 0);

  /// True when `key` is present.
  Result<bool> Contains(std::string_view key) const;

  /// Calls `fn(key)` for every key in [lo, hi] (inclusive, byte
  /// order). `fn` returns false to stop early. The key views point
  /// into a pinned page and die with the call; `fn` must not modify
  /// the tree.
  Status ScanRange(std::string_view lo, std::string_view hi,
                   const std::function<bool(std::string_view)>& fn) const;

  /// Number of keys (full leaf walk — diagnostics and tests).
  Result<int64_t> CountKeys() const;

 private:
  /// A split's result for the parent: the separator key and the new
  /// right sibling it routes to.
  struct Separator {
    std::string key;
    PageId right = 0;
  };
  struct Descent;  // btree.cc

  static constexpr uint32_t kMagic = 0x4d514254;  // "MQBT"

  Result<PageId> Root() const;
  Status SetRoot(PageId root);
  /// Allocates a node page holding one empty leaf.
  Result<PageId> NewLeaf();

  /// Pins node page `id`; Corrupted (nothing pinned) when its type byte
  /// or slot-array bounds are bad.
  Result<Frame*> PinNode(PageId id) const;

  /// Root-to-leaf descent towards `key`; the leaf comes back pinned.
  /// Notes whether the separators bounding the leaf start with
  /// `prefix`, and with `record_path` the internal nodes passed.
  Result<Descent> Descend(std::string_view key, std::string_view prefix,
                          bool record_path) const;

  /// Puts raw `cell` at slot `pos` of the pinned node `id`, repacking
  /// first when only fragmented space is left, and unpins it. A node
  /// that cannot hold the cell is split instead.
  Result<std::optional<Separator>> Place(Frame* frame, PageId id,
                                         size_t pos, std::string_view cell);

  /// Splits the pinned node `id` as if `cell` sat at slot `pos`: the
  /// lower half of the cells stays, the upper half moves to a new right
  /// sibling. Unpins the node first, so pins and LRU touches follow
  /// node, sibling, node.
  Result<Separator> Split(Frame* frame, PageId id, size_t pos,
                          std::string_view cell);

  /// Calls `fn` on every key >= `lo` in order until it returns false.
  Status Walk(std::string_view lo,
              const std::function<bool(std::string_view)>& fn) const;

  /// Whether a key other than `key` starts with `prefix`: the range
  /// probe behind Insert's and Erase's answer when a separator bounding
  /// the leaf itself starts with the prefix.
  Result<bool> AnyOtherWithPrefix(std::string_view key,
                                  std::string_view prefix) const;

  BufferManager* pool_;
  uint32_t file_id_;
};

}  // namespace msql::storage

#endif  // MSQL_STORAGE_BTREE_H_
