#include "storage/btree.h"

#include <cstring>
#include <utility>
#include <vector>

namespace msql::storage {

namespace {
// Node header field offsets.
constexpr uint32_t kNodeType = 0;      // u8: kLeaf or kInternal
constexpr uint32_t kNodeKeys = 1;      // u16: slot count
constexpr uint32_t kNodeNext = 4;      // u32 (leaf chain)
constexpr uint32_t kNodeLeftmost = 8;  // u32 (internal)
constexpr uint32_t kNodeCellTop = 12;  // u32: lowest cell byte
constexpr uint32_t kNodeHeader = 16;   // slot array starts here
constexpr char kLeaf = 1;
constexpr char kInternal = 2;
// Meta page field offsets.
constexpr uint32_t kMetaMagicOff = 0;  // u32
constexpr uint32_t kMetaRootOff = 4;   // u32

/// Largest cell: an internal cell around a kMaxBtreeKeyBytes key.
constexpr size_t kMaxCellBytes = 2 + kMaxBtreeKeyBytes + 4;

std::string_view CellKey(std::string_view cell) {
  return cell.substr(2, LoadU16(cell.data()));
}

PageId CellChild(std::string_view cell) {
  return LoadU32(cell.data() + 2 + LoadU16(cell.data()));
}

std::string_view LeafCell(char* buf, std::string_view key) {
  StoreU16(buf, static_cast<uint16_t>(key.size()));
  std::memcpy(buf + 2, key.data(), key.size());
  return {buf, 2 + key.size()};
}

std::string_view InternalCell(char* buf, std::string_view key,
                              PageId child) {
  LeafCell(buf, key);
  StoreU32(buf + 2 + key.size(), child);
  return {buf, 2 + key.size() + 4};
}

/// One node page, searched and edited through its frame bytes. Keys
/// and cells come back as views into the page.
class NodePage {
 public:
  explicit NodePage(char* data) : data_(data) {}

  /// Clears `data` into an empty node.
  static NodePage Format(char* data, bool leaf) {
    std::memset(data, 0, kPageSize);
    data[kNodeType] = leaf ? kLeaf : kInternal;
    StoreU32(data + kNodeCellTop, kPageSize);
    return NodePage(data);
  }

  bool type_ok() const {
    return data_[kNodeType] == kLeaf || data_[kNodeType] == kInternal;
  }
  /// The slot array ends at or below the cell top, inside the page.
  bool bounds_ok() const {
    return kNodeHeader + 2 * count() <= cell_top() && cell_top() <= kPageSize;
  }

  bool leaf() const { return data_[kNodeType] == kLeaf; }
  size_t count() const { return LoadU16(data_ + kNodeKeys); }
  PageId next() const { return LoadU32(data_ + kNodeNext); }
  void set_next(PageId id) { StoreU32(data_ + kNodeNext, id); }
  PageId leftmost() const { return LoadU32(data_ + kNodeLeftmost); }
  void set_leftmost(PageId id) { StoreU32(data_ + kNodeLeftmost, id); }

  /// Raw bytes of the cell in slot `i`.
  std::string_view cell(size_t i) const {
    const char* p = data_ + LoadU16(data_ + kNodeHeader + 2 * i);
    return {p, 2u + LoadU16(p) + (leaf() ? 0u : 4u)};
  }
  std::string_view key(size_t i) const {
    const char* p = data_ + LoadU16(data_ + kNodeHeader + 2 * i);
    return {p + 2, LoadU16(p)};
  }
  /// Internal nodes: the child that slot `route` of UpperBound leads to
  /// (0 is the leftmost child, r the child of cell r - 1).
  PageId child(size_t route) const {
    return route == 0 ? leftmost() : CellChild(cell(route - 1));
  }

  /// First slot whose key is >= `k`.
  size_t LowerBound(std::string_view k) const {
    size_t lo = 0;
    size_t hi = count();
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (key(mid) < k) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// First slot whose key is > `k`: the route an internal node takes.
  size_t UpperBound(std::string_view k) const {
    size_t lo = 0;
    size_t hi = count();
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (key(mid) <= k) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Free bytes between the slot array and the cell top.
  size_t gap() const { return cell_top() - kNodeHeader - 2 * count(); }

  /// Bytes the node takes once repacked: header, slots, live cells.
  size_t used() const {
    size_t bytes = kNodeHeader + 2 * count();
    for (size_t i = 0; i < count(); ++i) bytes += cell(i).size();
    return bytes;
  }

  /// Puts raw `cell` at slot `pos`; needs gap() >= cell.size() + 2.
  void Insert(size_t pos, std::string_view cell) {
    uint32_t top = cell_top() - static_cast<uint32_t>(cell.size());
    std::memcpy(data_ + top, cell.data(), cell.size());
    char* slots = data_ + kNodeHeader;
    std::memmove(slots + 2 * (pos + 1), slots + 2 * pos,
                 2 * (count() - pos));
    StoreU16(slots + 2 * pos, static_cast<uint16_t>(top));
    set_count(count() + 1);
    StoreU32(data_ + kNodeCellTop, top);
  }
  void Append(std::string_view cell) { Insert(count(), cell); }

  /// Drops slot `pos`; its cell bytes stay behind until a repack.
  void Erase(size_t pos) {
    char* slots = data_ + kNodeHeader;
    std::memmove(slots + 2 * pos, slots + 2 * (pos + 1),
                 2 * (count() - pos - 1));
    set_count(count() - 1);
  }

  /// Moves the live cells together against the page end.
  void Repack() {
    char image[kPageSize];
    std::memcpy(image, data_, kPageSize);
    NodePage old(image);
    uint32_t top = kPageSize;
    for (size_t i = 0; i < count(); ++i) {
      std::string_view c = old.cell(i);
      top -= static_cast<uint32_t>(c.size());
      std::memcpy(data_ + top, c.data(), c.size());
      StoreU16(data_ + kNodeHeader + 2 * i, static_cast<uint16_t>(top));
    }
    StoreU32(data_ + kNodeCellTop, top);
  }

 private:
  uint32_t cell_top() const { return LoadU32(data_ + kNodeCellTop); }
  void set_count(size_t n) {
    StoreU16(data_ + kNodeKeys, static_cast<uint16_t>(n));
  }

  char* data_;
};

/// What is known of keys sharing a prefix beyond the leaf's own cells.
enum class Seen : uint8_t { kNo, kYes, kMaybe };

/// A leaf neighbour settles the question.
Seen Neighbour(std::string_view key, std::string_view prefix) {
  return key.starts_with(prefix) ? Seen::kYes : Seen::kNo;
}

/// A bounding separator settles it only when it lacks the prefix: keys
/// starting with one prefix form one contiguous range, so a separator
/// outside that range has no prefix key beyond it. One inside leaves
/// the question open.
Seen Bound(std::string_view separator, std::string_view prefix) {
  return separator.starts_with(prefix) ? Seen::kMaybe : Seen::kNo;
}

/// Prefix keys besides whatever sits at slot `pos` of `leaf`: the
/// leaf's keys either side of it, and past a leaf edge what the
/// descent's bounding separator told.
Seen Around(const NodePage& leaf, size_t pos, std::string_view prefix,
            Seen below, Seen above) {
  Seen left = pos > 0 ? Neighbour(leaf.key(pos - 1), prefix) : below;
  Seen right = pos < leaf.count() ? Neighbour(leaf.key(pos), prefix) : above;
  if (left == Seen::kYes || right == Seen::kYes) return Seen::kYes;
  if (left == Seen::kMaybe || right == Seen::kMaybe) return Seen::kMaybe;
  return Seen::kNo;
}

}  // namespace

struct BTree::Descent {
  PageId root = 0;
  Frame* leaf = nullptr;  // pinned
  PageId leaf_id = 0;
  /// Prefix keys beyond the leaf below / above it, as far as the
  /// tightest bounding separators tell (kNo when there is none).
  Seen below = Seen::kNo;
  Seen above = Seen::kNo;
  /// Internal nodes passed and the route taken in each, root first.
  std::vector<std::pair<PageId, size_t>> path;
};

Status BTree::Create() {
  MSQL_ASSIGN_OR_RETURN(Frame * meta, pool_->NewPage(file_id_));
  if (meta->page_id != 0) {
    pool_->Unpin(meta);
    return Status::Internal("btree Create on a non-empty file");
  }
  StoreU32(meta->data + kMetaMagicOff, kMagic);
  pool_->MarkDirty(meta, 0);
  pool_->Unpin(meta);
  MSQL_ASSIGN_OR_RETURN(PageId root_id, NewLeaf());
  return SetRoot(root_id);
}

Status BTree::Reset() {
  if (pool_->file_size_pages(file_id_) == 0) return Create();
  MSQL_ASSIGN_OR_RETURN(Frame * meta, pool_->Pin(file_id_, 0));
  StoreU32(meta->data + kMetaMagicOff, kMagic);
  pool_->MarkDirty(meta, 0);
  pool_->Unpin(meta);
  MSQL_ASSIGN_OR_RETURN(PageId root_id, NewLeaf());
  return SetRoot(root_id);
}

Result<PageId> BTree::Root() const {
  MSQL_ASSIGN_OR_RETURN(Frame * meta, pool_->Pin(file_id_, 0));
  PageId root = LoadU32(meta->data + kMetaRootOff);
  pool_->Unpin(meta);
  return root;
}

Status BTree::SetRoot(PageId root) {
  MSQL_ASSIGN_OR_RETURN(Frame * meta, pool_->Pin(file_id_, 0));
  StoreU32(meta->data + kMetaRootOff, root);
  pool_->MarkDirty(meta, 0);
  pool_->Unpin(meta);
  return Status::OK();
}

Result<PageId> BTree::NewLeaf() {
  MSQL_ASSIGN_OR_RETURN(Frame * frame, pool_->NewPage(file_id_));
  PageId id = frame->page_id;
  NodePage::Format(frame->data, /*leaf=*/true);
  pool_->MarkDirty(frame, 0);
  pool_->Unpin(frame);
  return id;
}

Result<Frame*> BTree::PinNode(PageId id) const {
  MSQL_ASSIGN_OR_RETURN(Frame * frame, pool_->Pin(file_id_, id));
  NodePage node(frame->data);
  const char* defect = !node.type_ok()     ? "a bad type byte"
                       : !node.bounds_ok() ? "a slot array past its cells"
                                           : nullptr;
  if (defect != nullptr) {
    pool_->Unpin(frame);
    return Status::Corrupted("btree node page " + std::to_string(id) +
                             " has " + defect);
  }
  return frame;
}

Result<BTree::Descent> BTree::Descend(std::string_view key,
                                      std::string_view prefix,
                                      bool record_path) const {
  Descent d;
  MSQL_ASSIGN_OR_RETURN(d.root, Root());
  PageId id = d.root;
  for (;;) {
    MSQL_ASSIGN_OR_RETURN(Frame * frame, PinNode(id));
    NodePage node(frame->data);
    if (node.leaf()) {
      d.leaf = frame;
      d.leaf_id = id;
      return d;
    }
    size_t route = node.UpperBound(key);
    if (route > 0) d.below = Bound(node.key(route - 1), prefix);
    if (route < node.count()) d.above = Bound(node.key(route), prefix);
    if (record_path) d.path.emplace_back(id, route);
    id = node.child(route);
    pool_->Unpin(frame);
  }
}

Result<std::optional<BTree::Separator>> BTree::Place(Frame* frame,
                                                     PageId id, size_t pos,
                                                     std::string_view cell) {
  NodePage node(frame->data);
  const size_t need = cell.size() + 2;  // cell + slot
  if (node.gap() < need && node.used() + need <= kPageSize) node.Repack();
  if (node.gap() >= need) {
    node.Insert(pos, cell);
    pool_->MarkDirty(frame, 0);
    pool_->Unpin(frame);
    return std::optional<Separator>{};
  }
  MSQL_ASSIGN_OR_RETURN(Separator separator, Split(frame, id, pos, cell));
  return std::optional<Separator>{std::move(separator)};
}

Result<BTree::Separator> BTree::Split(Frame* frame, PageId id, size_t pos,
                                      std::string_view cell) {
  char image[kPageSize];
  std::memcpy(image, frame->data, kPageSize);
  pool_->Unpin(frame);
  const NodePage old(image);
  const bool leaf = old.leaf();
  const size_t total = old.count() + 1;
  auto at = [&](size_t j) {
    return j < pos ? old.cell(j) : j == pos ? cell : old.cell(j - 1);
  };
  auto bytes = [&](size_t from, size_t to) {
    size_t sum = kNodeHeader;
    for (size_t j = from; j < to; ++j) sum += at(j).size() + 2;
    return sum;
  };
  // Halve by cell count. Only when mixed key sizes overflow one half
  // does the split point move toward it, to the nearest point at which
  // both halves fit. An internal node's middle cell moves up and sits
  // in neither half.
  const size_t lifted = leaf ? 0 : 1;
  size_t mid = total / 2;
  while (bytes(mid + lifted, total) > kPageSize) ++mid;
  while (bytes(0, mid) > kPageSize) --mid;

  MSQL_ASSIGN_OR_RETURN(Frame * right_frame, pool_->NewPage(file_id_));
  Separator separator{std::string(CellKey(at(mid))), right_frame->page_id};
  NodePage right = NodePage::Format(right_frame->data, leaf);
  if (leaf) {
    right.set_next(old.next());
  } else {
    right.set_leftmost(CellChild(at(mid)));  // the lifted cell's child
  }
  for (size_t j = mid + lifted; j < total; ++j) right.Append(at(j));
  pool_->MarkDirty(right_frame, 0);
  pool_->Unpin(right_frame);

  MSQL_ASSIGN_OR_RETURN(Frame * left_frame, pool_->Pin(file_id_, id));
  NodePage left = NodePage::Format(left_frame->data, leaf);
  if (leaf) {
    left.set_next(separator.right);
  } else {
    left.set_leftmost(old.leftmost());
  }
  for (size_t j = 0; j < mid; ++j) left.Append(at(j));
  pool_->MarkDirty(left_frame, 0);
  pool_->Unpin(left_frame);
  return separator;
}

Result<bool> BTree::Insert(std::string_view key, size_t prefix_len) {
  if (key.size() > kMaxBtreeKeyBytes) {
    return Status::InvalidArgument("btree key of " +
                                   std::to_string(key.size()) +
                                   " bytes exceeds the limit of " +
                                   std::to_string(kMaxBtreeKeyBytes));
  }
  const std::string_view prefix = key.substr(0, prefix_len);
  MSQL_ASSIGN_OR_RETURN(Descent d, Descend(key, prefix, true));
  NodePage leaf(d.leaf->data);
  const size_t pos = leaf.LowerBound(key);
  if (pos < leaf.count() && leaf.key(pos) == key) {
    pool_->Unpin(d.leaf);
    return true;
  }
  const Seen seen = Around(leaf, pos, prefix, d.below, d.above);

  char buf[kMaxCellBytes];
  MSQL_ASSIGN_OR_RETURN(std::optional<Separator> split,
                        Place(d.leaf, d.leaf_id, pos, LeafCell(buf, key)));
  // Post each split's separator in the parent, bottom up.
  while (split.has_value() && !d.path.empty()) {
    auto [parent, route] = d.path.back();
    d.path.pop_back();
    MSQL_ASSIGN_OR_RETURN(Frame * frame, PinNode(parent));
    std::string_view cell = InternalCell(buf, split->key, split->right);
    MSQL_ASSIGN_OR_RETURN(split, Place(frame, parent, route, cell));
  }
  if (split.has_value()) {
    MSQL_ASSIGN_OR_RETURN(Frame * frame, pool_->NewPage(file_id_));
    PageId new_root = frame->page_id;
    NodePage root = NodePage::Format(frame->data, /*leaf=*/false);
    root.set_leftmost(d.root);
    root.Append(InternalCell(buf, split->key, split->right));
    pool_->MarkDirty(frame, 0);
    pool_->Unpin(frame);
    MSQL_RETURN_IF_ERROR(SetRoot(new_root));
  }
  if (seen == Seen::kMaybe) return AnyOtherWithPrefix(key, prefix);
  return seen == Seen::kYes;
}

Result<bool> BTree::Erase(std::string_view key, size_t prefix_len) {
  const std::string_view prefix = key.substr(0, prefix_len);
  MSQL_ASSIGN_OR_RETURN(Descent d, Descend(key, prefix, false));
  NodePage leaf(d.leaf->data);
  const size_t pos = leaf.LowerBound(key);
  if (pos == leaf.count() || leaf.key(pos) != key) {
    pool_->Unpin(d.leaf);
    return true;
  }
  leaf.Erase(pos);
  const Seen seen = Around(leaf, pos, prefix, d.below, d.above);
  pool_->MarkDirty(d.leaf, 0);
  pool_->Unpin(d.leaf);
  if (seen == Seen::kMaybe) return AnyOtherWithPrefix(key, prefix);
  return seen == Seen::kYes;
}

Result<bool> BTree::Contains(std::string_view key) const {
  MSQL_ASSIGN_OR_RETURN(Descent d, Descend(key, {}, false));
  NodePage leaf(d.leaf->data);
  const size_t pos = leaf.LowerBound(key);
  const bool found = pos < leaf.count() && leaf.key(pos) == key;
  pool_->Unpin(d.leaf);
  return found;
}

Status BTree::Walk(std::string_view lo,
                   const std::function<bool(std::string_view)>& fn) const {
  MSQL_ASSIGN_OR_RETURN(Descent d, Descend(lo, {}, false));
  Frame* frame = d.leaf;
  size_t i = NodePage(frame->data).LowerBound(lo);
  for (;;) {
    NodePage node(frame->data);
    for (; i < node.count(); ++i) {
      if (!fn(node.key(i))) {
        pool_->Unpin(frame);
        return Status::OK();
      }
    }
    PageId next = node.next();
    pool_->Unpin(frame);
    if (next == 0) return Status::OK();
    MSQL_ASSIGN_OR_RETURN(frame, PinNode(next));
    i = 0;
  }
}

Status BTree::ScanRange(
    std::string_view lo, std::string_view hi,
    const std::function<bool(std::string_view)>& fn) const {
  return Walk(lo, [&](std::string_view key) { return key <= hi && fn(key); });
}

Result<bool> BTree::AnyOtherWithPrefix(std::string_view key,
                                       std::string_view prefix) const {
  bool found = false;
  MSQL_RETURN_IF_ERROR(Walk(prefix, [&](std::string_view other) {
    if (!other.starts_with(prefix)) return false;
    found = other != key;
    return !found;
  }));
  return found;
}

Result<int64_t> BTree::CountKeys() const {
  // Down the leftmost spine, then along the leaf chain.
  MSQL_ASSIGN_OR_RETURN(PageId id, Root());
  int64_t count = 0;
  while (id != 0) {
    MSQL_ASSIGN_OR_RETURN(Frame * frame, PinNode(id));
    NodePage node(frame->data);
    if (node.leaf()) {
      count += static_cast<int64_t>(node.count());
      id = node.next();
    } else {
      id = node.leftmost();
    }
    pool_->Unpin(frame);
  }
  return count;
}

}  // namespace msql::storage
