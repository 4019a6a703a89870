// Unit tests of the paged-storage primitives: disk manager, buffer
// pool (LRU + no-steal), heap file (directory + redo guards), B+-tree
// and the write-ahead log's durability boundary.

#include <filesystem>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/btree.h"
#include "storage/buffer_manager.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"
#include "storage/page.h"
#include "storage/wal.h"

namespace msql::storage {
namespace {

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("msql_storage_test_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  std::string Path(const std::string& name) const {
    return (root_ / name).string();
  }

  std::filesystem::path root_;
};

TEST_F(StorageTest, DiskManagerRoundTripsPages) {
  DiskManager disk;
  ASSERT_TRUE(disk.Open(Path("a.db")).ok());
  auto p0 = disk.AllocatePage();
  ASSERT_TRUE(p0.ok());
  auto p1 = disk.AllocatePage();
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(*p0, 0u);
  EXPECT_EQ(*p1, 1u);
  char page[kPageSize];
  std::fill(page, page + kPageSize, 'x');
  ASSERT_TRUE(disk.WritePage(*p1, page).ok());
  ASSERT_TRUE(disk.Flush().ok());
  disk.Close();

  DiskManager again;
  ASSERT_TRUE(again.Open(Path("a.db")).ok());
  EXPECT_EQ(again.page_count(), 2u);
  char read[kPageSize];
  ASSERT_TRUE(again.ReadPage(1, read).ok());
  EXPECT_EQ(read[0], 'x');
  EXPECT_EQ(read[kPageSize - 1], 'x');
  again.Close();
}

TEST_F(StorageTest, BufferManagerEvictsLruAndCountsHits) {
  DiskManager disk;
  ASSERT_TRUE(disk.Open(Path("b.db")).ok());
  BufferManager pool(2);
  uint32_t fid = pool.RegisterFile(&disk);

  // Three pages through a two-frame pool forces an eviction.
  for (int i = 0; i < 3; ++i) {
    auto frame = pool.NewPage(fid);
    ASSERT_TRUE(frame.ok());
    (*frame)->data[0] = static_cast<char>('a' + i);
    pool.MarkDirty(*frame, 0);
    pool.Unpin(*frame);
  }
  EXPECT_GE(pool.evictions(), 1);

  // Re-pinning an evicted page reads its (written-back) content.
  auto frame = pool.Pin(fid, 0);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ((*frame)->data[0], 'a');
  pool.Unpin(*frame);
  int64_t hits = pool.pin_hits();
  auto frame2 = pool.Pin(fid, 0);
  ASSERT_TRUE(frame2.ok());
  pool.Unpin(*frame2);
  EXPECT_EQ(pool.pin_hits(), hits + 1);
  disk.Close();
}

TEST_F(StorageTest, BufferManagerRefusesWhenAllFramesPinned) {
  DiskManager disk;
  ASSERT_TRUE(disk.Open(Path("c.db")).ok());
  BufferManager pool(2);
  uint32_t fid = pool.RegisterFile(&disk);
  auto f0 = pool.NewPage(fid);
  auto f1 = pool.NewPage(fid);
  ASSERT_TRUE(f0.ok() && f1.ok());
  EXPECT_FALSE(pool.NewPage(fid).ok());  // both frames pinned
  pool.Unpin(*f0);
  EXPECT_TRUE(pool.NewPage(fid).ok());
  disk.Close();
}

TEST_F(StorageTest, NoStealHoldsDirtyPagesUntilRelease) {
  DiskManager disk;
  ASSERT_TRUE(disk.Open(Path("d.db")).ok());
  BufferManager pool(4);
  uint32_t fid = pool.RegisterFile(&disk);
  auto frame = pool.NewPage(fid);
  ASSERT_TRUE(frame.ok());
  (*frame)->data[0] = 'z';
  pool.MarkDirty(*frame, /*txn_id=*/42);
  pool.Unpin(*frame);

  // Transaction 42 is active: the page is not eligible for writeback.
  int64_t writes = pool.page_writes();
  ASSERT_TRUE(pool.FlushEligible().ok());
  EXPECT_EQ(pool.page_writes(), writes);

  pool.ReleaseTxn(42);
  ASSERT_TRUE(pool.FlushEligible().ok());
  EXPECT_EQ(pool.page_writes(), writes + 1);
  disk.Close();
}

TEST_F(StorageTest, FlushEligibleHonorsPageCap) {
  DiskManager disk;
  ASSERT_TRUE(disk.Open(Path("e.db")).ok());
  BufferManager pool(8);
  uint32_t fid = pool.RegisterFile(&disk);
  for (int i = 0; i < 4; ++i) {
    auto frame = pool.NewPage(fid);
    ASSERT_TRUE(frame.ok());
    pool.MarkDirty(*frame, 0);
    pool.Unpin(*frame);
  }
  int64_t writes = pool.page_writes();
  ASSERT_TRUE(pool.FlushEligible(/*max_pages=*/2).ok());
  EXPECT_EQ(pool.page_writes(), writes + 2);
  ASSERT_TRUE(pool.FlushEligible().ok());
  EXPECT_EQ(pool.page_writes(), writes + 4);
  disk.Close();
}

TEST_F(StorageTest, DiscardFileDropsResidentPagesWithoutWriting) {
  DiskManager disk;
  ASSERT_TRUE(disk.Open(Path("f.db")).ok());
  BufferManager pool(4);
  uint32_t fid = pool.RegisterFile(&disk);
  auto frame = pool.NewPage(fid);
  ASSERT_TRUE(frame.ok());
  pool.MarkDirty(*frame, 0);
  pool.Unpin(*frame);
  int64_t writes = pool.page_writes();
  pool.DiscardFile(fid);
  EXPECT_EQ(pool.page_writes(), writes);
  EXPECT_EQ(pool.file_size_pages(fid), 0u);
  ASSERT_TRUE(pool.FlushEligible().ok());  // nothing left to flush
  EXPECT_EQ(pool.page_writes(), writes);
  disk.Close();
}

TEST_F(StorageTest, HeapFilePutGetDeleteAndFreeFlags) {
  DiskManager disk;
  ASSERT_TRUE(disk.Open(Path("g.db")).ok());
  BufferManager pool(16);
  uint32_t fid = pool.RegisterFile(&disk);
  HeapFile heap(&pool, fid);
  ASSERT_TRUE(heap.Create().ok());

  ASSERT_TRUE(heap.Put(0, 1, 0, "alpha").ok());
  ASSERT_TRUE(heap.Put(7, 2, 0, "beta").ok());
  auto a = heap.Get(0);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, "alpha");
  EXPECT_EQ(*heap.EntryFlags(7), 1u);
  EXPECT_EQ(*heap.EntryFlags(3), 0u);  // never written

  ASSERT_TRUE(heap.Delete(0, 3, 0).ok());
  EXPECT_EQ(*heap.EntryFlags(0), 2u);
  EXPECT_FALSE(heap.Get(0).ok());
  EXPECT_EQ(*heap.MaxRowId(), 7);

  // Updates repoint the directory at a fresh record.
  ASSERT_TRUE(heap.Put(7, 4, 0, "beta2").ok());
  EXPECT_EQ(*heap.Get(7), "beta2");
  EXPECT_EQ(*heap.EntryLsn(7), 4u);
  disk.Close();
}

TEST_F(StorageTest, HeapRedoIsLsnGuarded) {
  DiskManager disk;
  ASSERT_TRUE(disk.Open(Path("h.db")).ok());
  BufferManager pool(16);
  uint32_t fid = pool.RegisterFile(&disk);
  HeapFile heap(&pool, fid);
  ASSERT_TRUE(heap.Create().ok());

  ASSERT_TRUE(heap.Put(1, 10, 0, "v10").ok());
  // Older redo is a no-op; newer redo applies.
  ASSERT_TRUE(heap.RedoPut(1, 5, "v5").ok());
  EXPECT_EQ(*heap.Get(1), "v10");
  ASSERT_TRUE(heap.RedoPut(1, 11, "v11").ok());
  EXPECT_EQ(*heap.Get(1), "v11");
  ASSERT_TRUE(heap.RedoDelete(1, 12).ok());
  EXPECT_EQ(*heap.EntryFlags(1), 2u);
  // RedoDelete of a never-seen rowid creates a tombstone (compensation
  // records can reference rows whose insert was discarded).
  ASSERT_TRUE(heap.RedoDelete(99, 13).ok());
  EXPECT_EQ(*heap.EntryFlags(99), 2u);
  disk.Close();
}

TEST_F(StorageTest, BtreeInsertSplitEraseAndRangeScan) {
  DiskManager disk;
  ASSERT_TRUE(disk.Open(Path("i.db")).ok());
  BufferManager pool(64);
  uint32_t fid = pool.RegisterFile(&disk);
  BTree tree(&pool, fid);
  ASSERT_TRUE(tree.Create().ok());

  // Enough wide keys to force leaf and internal splits.
  const int kKeys = 500;
  for (int i = 0; i < kKeys; ++i) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "key-%06d-%032d", (i * 7919) % kKeys, i);
    ASSERT_TRUE(tree.Insert(buf).ok()) << i;
  }
  EXPECT_EQ(*tree.CountKeys(), kKeys);

  auto c = tree.Contains("key-000007-" + std::string(30, '0') + "93");
  ASSERT_TRUE(c.ok());

  std::vector<std::string> in_range;
  ASSERT_TRUE(tree.ScanRange("key-000100", "key-000199\xff",
                             [&](std::string_view key) {
                               in_range.emplace_back(key);
                               return true;
                             })
                  .ok());
  EXPECT_EQ(in_range.size(), 100u);
  for (size_t i = 1; i < in_range.size(); ++i) {
    EXPECT_LT(in_range[i - 1], in_range[i]);
  }

  for (int i = 0; i < kKeys; i += 2) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "key-%06d-%032d", (i * 7919) % kKeys, i);
    ASSERT_TRUE(tree.Erase(buf).ok());
  }
  EXPECT_EQ(*tree.CountKeys(), kKeys / 2);
  disk.Close();
}

TEST_F(StorageTest, BtreeResetEmptiesReusedFile) {
  DiskManager disk;
  ASSERT_TRUE(disk.Open(Path("j.db")).ok());
  BufferManager pool(32);
  uint32_t fid = pool.RegisterFile(&disk);
  BTree tree(&pool, fid);
  ASSERT_TRUE(tree.Reset().ok());  // fresh file → Create
  ASSERT_TRUE(tree.Insert("one").ok());
  ASSERT_TRUE(tree.Insert("two").ok());
  ASSERT_TRUE(tree.Reset().ok());  // non-empty file → new empty root
  EXPECT_EQ(*tree.CountKeys(), 0);
  ASSERT_TRUE(tree.Insert("three").ok());
  EXPECT_TRUE(*tree.Contains("three"));
  EXPECT_FALSE(*tree.Contains("one"));
  disk.Close();
}

// Whether `model` holds a key starting with `prefix`.
bool ModelHasPrefix(const std::set<std::string>& model,
                    std::string_view prefix) {
  auto it = model.lower_bound(std::string(prefix));
  return it != model.end() && it->starts_with(prefix);
}

// Drives one tree and a std::set through the same seeded operations and
// checks every answer: Insert's and Erase's prefix verdicts, Contains,
// ScanRange and CountKeys. Keys share one of a few random stems (so
// prefix runs span leaves and separators carry them), mix in every
// byte value, and run from 1 byte to kMaxBtreeKeyBytes.
void RunAgainstModel(const std::string& path, size_t frames,
                     uint64_t seed) {
  SCOPED_TRACE("frames=" + std::to_string(frames) +
               " seed=" + std::to_string(seed));
  DiskManager disk;
  ASSERT_TRUE(disk.Open(path).ok());
  BufferManager pool(frames);
  uint32_t fid = pool.RegisterFile(&disk);
  BTree tree(&pool, fid);
  ASSERT_TRUE(tree.Create().ok());
  std::mt19937_64 rng(seed);
  auto uniform = [&](size_t lo, size_t hi) {
    return std::uniform_int_distribution<size_t>(lo, hi)(rng);
  };
  auto random_bytes = [&](size_t n) {
    std::string out(n, '\0');
    for (char& c : out) c = static_cast<char>(uniform(0, 255));
    return out;
  };
  std::vector<std::string> stems;
  for (int i = 0; i < 12; ++i) stems.push_back(random_bytes(uniform(1, 60)));
  auto random_key = [&]() -> std::string {
    switch (uniform(0, 9)) {
      case 0:
        return random_bytes(1);
      case 1:
        return random_bytes(kMaxBtreeKeyBytes);
      case 2:
        return random_bytes(uniform(1, kMaxBtreeKeyBytes));
      default: {
        const std::string& stem = stems[uniform(0, stems.size() - 1)];
        return stem + random_bytes(uniform(0, 120));
      }
    }
  };
  std::set<std::string> model;
  auto any_model_key = [&]() -> std::string {
    auto it = model.lower_bound(random_key());
    return it == model.end() ? random_key() : *it;
  };

  auto insert = [&](const std::string& key) {
    size_t prefix_len = uniform(0, key.size());
    bool had = ModelHasPrefix(model, key.substr(0, prefix_len));
    auto result = tree.Insert(key, prefix_len);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(*result, had) << "insert prefix verdict";
    model.insert(key);
  };
  auto erase = [&](const std::string& key) {
    size_t prefix_len = uniform(0, key.size());
    bool present = model.erase(key) > 0;
    bool left = !present || ModelHasPrefix(model, key.substr(0, prefix_len));
    auto result = tree.Erase(key, prefix_len);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(*result, left) << "erase prefix verdict";
  };
  auto check_probe = [&] {
    std::string key = uniform(0, 1) == 0 ? any_model_key() : random_key();
    auto contains = tree.Contains(key);
    ASSERT_TRUE(contains.ok());
    EXPECT_EQ(*contains, model.count(key) > 0);
    std::string lo = any_model_key();
    std::string hi = uniform(0, 3) == 0 ? lo : any_model_key();
    if (hi < lo) std::swap(lo, hi);
    std::vector<std::string> got;
    ASSERT_TRUE(tree.ScanRange(lo, hi, [&](std::string_view k) {
                      got.emplace_back(k);
                      return true;
                    }).ok());
    std::vector<std::string> want(model.lower_bound(lo),
                                  model.upper_bound(hi));
    EXPECT_EQ(got, want);
  };
  auto check_count = [&] {
    auto count = tree.CountKeys();
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, static_cast<int64_t>(model.size()));
  };

  // Grow: leaves split, then the root, then its internal children.
  for (int i = 0; i < 2500; ++i) {
    if (uniform(0, 9) == 0 && !model.empty()) {
      insert(any_model_key());  // duplicate
    } else {
      insert(random_key());
    }
    if (i % 25 == 0) check_probe();
  }
  check_count();
  int64_t pins_before = pool.pin_hits() + pool.page_reads();
  ASSERT_TRUE(tree.Contains(*model.begin()).ok());
  // Meta page, root, at least one internal level, leaf.
  EXPECT_GE(pool.pin_hits() + pool.page_reads() - pins_before, 4);

  // Erase-heavy churn: leaves empty out, separators go stale.
  for (int i = 0; i < 4000; ++i) {
    if (uniform(0, 9) < 7) {
      erase(uniform(0, 3) == 0 ? random_key() : any_model_key());
    } else {
      insert(random_key());
    }
    if (i % 25 == 0) check_probe();
    if (i % 500 == 0) check_count();
  }
  check_count();

  // Re-inserting erased keys into their own leaves must reuse the space
  // they freed: a run of neighbouring keys churned far past a page's
  // worth of bytes repacks its leaves in place and adds no page.
  std::vector<std::string> run;
  for (auto it = model.lower_bound(any_model_key());
       it != model.end() && run.size() < 40; ++it) {
    run.push_back(*it);
  }
  size_t pages = disk.page_count();
  for (int round = 0; round < 30; ++round) {
    for (const std::string& key : run) erase(key);
    for (const std::string& key : run) insert(key);
  }
  EXPECT_EQ(disk.page_count(), pages);
  for (int i = 0; i < 50; ++i) check_probe();
  check_count();
  disk.Close();
}

TEST_F(StorageTest, BtreeMatchesSetModelOnSmallAndLargePools) {
  RunAgainstModel(Path("small.db"), 8, 1993);
  RunAgainstModel(Path("large.db"), 64, 2000);
}

TEST_F(StorageTest, BtreeRejectsCorruptNodePages) {
  DiskManager disk;
  ASSERT_TRUE(disk.Open(Path("bad.db")).ok());
  BufferManager pool(8);
  uint32_t fid = pool.RegisterFile(&disk);
  BTree tree(&pool, fid);
  ASSERT_TRUE(tree.Create().ok());  // page 0 meta, page 1 the root leaf
  ASSERT_TRUE(tree.Insert("a").ok());
  ASSERT_TRUE(tree.Insert("b").ok());
  auto poke = [&](uint32_t offset, char byte) {
    auto frame = pool.Pin(fid, 1);
    ASSERT_TRUE(frame.ok());
    (*frame)->data[offset] = byte;
    pool.MarkDirty(*frame, 0);
    pool.Unpin(*frame);
  };
  auto expect_corrupted = [&] {
    EXPECT_EQ(tree.Insert("c").status().code(), StatusCode::kCorrupted);
    EXPECT_EQ(tree.Erase("a").status().code(), StatusCode::kCorrupted);
    EXPECT_EQ(tree.Contains("a").status().code(), StatusCode::kCorrupted);
    EXPECT_EQ(tree.CountKeys().status().code(), StatusCode::kCorrupted);
    Status scan = tree.ScanRange("a", "z", [](std::string_view) {
      return true;
    });
    EXPECT_EQ(scan.code(), StatusCode::kCorrupted);
  };

  poke(0, 7);  // type byte: neither leaf (1) nor internal (2)
  expect_corrupted();
  poke(0, 1);
  ASSERT_TRUE(tree.Contains("a").ok());
  // A cell top (bytes 12-15) below the slot array would let an insert
  // write over the slots.
  poke(12, 2);
  poke(13, 0);
  expect_corrupted();
  disk.Close();
}

TEST_F(StorageTest, WalFlushIsTheDurabilityBoundary) {
  WriteAheadLog wal;
  ASSERT_TRUE(wal.Open(Path("wal.log")).ok());
  auto l1 = wal.Append(WalRecordType::kBegin, "p1");
  ASSERT_TRUE(l1.ok());
  ASSERT_TRUE(wal.Flush().ok());
  auto l2 = wal.Append(WalRecordType::kInsert, "p2");
  ASSERT_TRUE(l2.ok());
  EXPECT_GT(*l2, *l1);

  // Unflushed tail vanishes in a crash.
  wal.DropUnflushed();
  auto records = wal.ReadAll();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].payload, "p1");
  EXPECT_EQ((*records)[0].type, WalRecordType::kBegin);
  wal.Close();

  // Reopening restores the LSN counter past the durable prefix.
  WriteAheadLog again;
  ASSERT_TRUE(again.Open(Path("wal.log")).ok());
  auto l3 = again.Append(WalRecordType::kCommit, "p3");
  ASSERT_TRUE(l3.ok());
  EXPECT_GT(*l3, *l1);
  ASSERT_TRUE(again.Flush().ok());
  auto all = again.ReadAll();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 2u);
  again.Close();
}

TEST_F(StorageTest, WalToleratesTornTail) {
  WriteAheadLog wal;
  ASSERT_TRUE(wal.Open(Path("torn.log")).ok());
  ASSERT_TRUE(wal.Append(WalRecordType::kBegin, "keep").ok());
  ASSERT_TRUE(wal.Flush().ok());
  wal.Close();

  // Simulate a torn final record: append garbage shorter than a frame.
  {
    std::FILE* f = std::fopen(Path("torn.log").c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char junk[] = {0x40, 0x00, 0x00, 0x00, 0x02};
    std::fwrite(junk, 1, sizeof junk, f);
    std::fclose(f);
  }

  WriteAheadLog again;
  ASSERT_TRUE(again.Open(Path("torn.log")).ok());
  auto records = again.ReadAll();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].payload, "keep");
  again.Close();
}

}  // namespace
}  // namespace msql::storage
