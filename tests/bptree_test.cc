// Unit + property tests for the external B+-tree (experiment E1 substrate).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <random>

#include "ccidx/bptree/bptree.h"
#include "ccidx/core/geometry.h"

namespace ccidx {
namespace {

constexpr uint32_t kPageSize = 256;  // fanout = (256-16)/16 = 15

class BPlusTreeTest : public ::testing::Test {
 protected:
  BPlusTreeTest() : dev_(kPageSize), pager_(&dev_, 0) {}

  BlockDevice dev_;
  Pager pager_;
};

TEST_F(BPlusTreeTest, EmptyTree) {
  BPlusTree tree(&pager_);
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 0u);
  std::vector<BtEntry> out;
  VectorSink<BtEntry> sink(&out);
  ASSERT_TRUE(tree.RangeScan(0, 100, &sink).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(tree.CheckInvariants().ok());
}

TEST_F(BPlusTreeTest, SingleInsertAndSearch) {
  BPlusTree tree(&pager_);
  ASSERT_TRUE(tree.Insert(5, 50).ok());
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.height(), 1u);
  std::vector<BtEntry> out;
  VectorSink<BtEntry> sink(&out);
  ASSERT_TRUE(tree.RangeScan(5, 5, &sink).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].key, 5);
  EXPECT_EQ(out[0].value, 50u);
}

TEST_F(BPlusTreeTest, SequentialInsertsSplitCorrectly) {
  BPlusTree tree(&pager_);
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(tree.Insert(i, static_cast<uint64_t>(i) * 10).ok());
  }
  EXPECT_EQ(tree.size(), static_cast<uint64_t>(n));
  EXPECT_GT(tree.height(), 1u);
  ASSERT_TRUE(tree.CheckInvariants().ok());
  std::vector<BtEntry> out;
  VectorSink<BtEntry> sink(&out);
  ASSERT_TRUE(tree.RangeScan(0, n, &sink).ok());
  ASSERT_EQ(out.size(), static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(out[i].key, i);
    EXPECT_EQ(out[i].value, static_cast<uint64_t>(i) * 10);
  }
}

TEST_F(BPlusTreeTest, ReverseInsertsSplitCorrectly) {
  BPlusTree tree(&pager_);
  const int n = 500;
  for (int i = n - 1; i >= 0; --i) {
    ASSERT_TRUE(tree.Insert(i, static_cast<uint64_t>(i)).ok());
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
  std::vector<BtEntry> out;
  VectorSink<BtEntry> sink(&out);
  ASSERT_TRUE(tree.RangeScan(0, n, &sink).ok());
  ASSERT_EQ(out.size(), static_cast<size_t>(n));
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
}

TEST_F(BPlusTreeTest, DuplicateKeysAllStored) {
  BPlusTree tree(&pager_);
  const int dupes = 100;
  for (int i = 0; i < dupes; ++i) {
    ASSERT_TRUE(tree.Insert(7, static_cast<uint64_t>(i)).ok());
  }
  // Surround with other keys so the duplicate run crosses node boundaries.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree.Insert(i % 2 == 0 ? 3 : 11, 1000 + i).ok());
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
  std::vector<BtEntry> out;
  VectorSink<BtEntry> sink(&out);
  ASSERT_TRUE(tree.RangeScan(7, 7, &sink).ok());
  EXPECT_EQ(out.size(), static_cast<size_t>(dupes));
}

TEST_F(BPlusTreeTest, RangeSearchBoundariesInclusive) {
  BPlusTree tree(&pager_);
  for (int i = 0; i < 100; i += 2) {
    ASSERT_TRUE(tree.Insert(i, static_cast<uint64_t>(i)).ok());
  }
  std::vector<BtEntry> out;
  VectorSink<BtEntry> sink(&out);
  ASSERT_TRUE(tree.RangeScan(10, 20, &sink).ok());
  ASSERT_EQ(out.size(), 6u);  // 10,12,14,16,18,20
  EXPECT_EQ(out.front().key, 10);
  EXPECT_EQ(out.back().key, 20);
  out.clear();
  ASSERT_TRUE(tree.RangeScan(11, 11, &sink).ok());
  EXPECT_TRUE(out.empty());
  out.clear();
  ASSERT_TRUE(tree.RangeScan(50, 10, &sink).ok());  // inverted range
  EXPECT_TRUE(out.empty());
}

TEST_F(BPlusTreeTest, NegativeKeys) {
  BPlusTree tree(&pager_);
  for (int i = -250; i < 250; ++i) {
    ASSERT_TRUE(tree.Insert(i, static_cast<uint64_t>(i + 1000)).ok());
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
  std::vector<BtEntry> out;
  VectorSink<BtEntry> sink(&out);
  ASSERT_TRUE(tree.RangeScan(-100, -90, &sink).ok());
  EXPECT_EQ(out.size(), 11u);
}

TEST_F(BPlusTreeTest, DeleteExistingAndMissing) {
  BPlusTree tree(&pager_);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(tree.Insert(i, static_cast<uint64_t>(i)).ok());
  }
  bool found = false;
  ASSERT_TRUE(tree.Delete(50, 50, &found).ok());
  EXPECT_TRUE(found);
  EXPECT_EQ(tree.size(), 199u);
  ASSERT_TRUE(tree.Delete(50, 50, &found).ok());
  EXPECT_FALSE(found);
  ASSERT_TRUE(tree.Delete(50, 999, &found).ok());  // wrong value
  EXPECT_FALSE(found);
  std::vector<BtEntry> out;
  VectorSink<BtEntry> sink(&out);
  ASSERT_TRUE(tree.RangeScan(49, 51, &sink).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].key, 49);
  EXPECT_EQ(out[1].key, 51);
}

TEST_F(BPlusTreeTest, DeleteDistinguishesDuplicateValues) {
  BPlusTree tree(&pager_);
  for (uint64_t v = 0; v < 50; ++v) ASSERT_TRUE(tree.Insert(9, v).ok());
  bool found = false;
  ASSERT_TRUE(tree.Delete(9, 25, &found).ok());
  EXPECT_TRUE(found);
  std::vector<BtEntry> out;
  VectorSink<BtEntry> sink(&out);
  ASSERT_TRUE(tree.RangeScan(9, 9, &sink).ok());
  EXPECT_EQ(out.size(), 49u);
  EXPECT_TRUE(std::none_of(out.begin(), out.end(),
                           [](const BtEntry& e) { return e.value == 25; }));
}

TEST_F(BPlusTreeTest, BulkLoadMatchesIncremental) {
  std::vector<BtEntry> entries;
  for (int i = 0; i < 1000; ++i) {
    entries.push_back({i * 3, static_cast<uint64_t>(i), 0});
  }
  auto loaded = BPlusTree::BulkLoad(&pager_, entries);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded->CheckInvariants().ok());
  EXPECT_EQ(loaded->size(), entries.size());
  std::vector<BtEntry> out;
  VectorSink<BtEntry> sink(&out);
  ASSERT_TRUE(loaded->RangeScan(kCoordMin, kCoordMax, &sink).ok());
  EXPECT_EQ(out, entries);
}

TEST_F(BPlusTreeTest, BulkLoadRejectsUnsorted) {
  std::vector<BtEntry> entries = {{5, 0, 0}, {3, 0, 0}};
  auto loaded = BPlusTree::BulkLoad(&pager_, entries);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(BPlusTreeTest, BulkLoadThenInsertAndDelete) {
  std::vector<BtEntry> entries;
  for (int i = 0; i < 500; ++i) {
    entries.push_back({i * 2, static_cast<uint64_t>(i), 0});
  }
  auto tree = BPlusTree::BulkLoad(&pager_, entries);
  ASSERT_TRUE(tree.ok());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(tree->Insert(i * 2 + 1, 9000 + i).ok());
  }
  ASSERT_TRUE(tree->CheckInvariants().ok());
  EXPECT_EQ(tree->size(), 1000u);
  std::vector<BtEntry> out;
  VectorSink<BtEntry> sink(&out);
  ASSERT_TRUE(tree->RangeScan(0, 999, &sink).ok());
  EXPECT_EQ(out.size(), 1000u);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
}

TEST_F(BPlusTreeTest, DestroyReleasesAllPages) {
  BPlusTree tree(&pager_);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(tree.Insert(i, static_cast<uint64_t>(i)).ok());
  }
  EXPECT_GT(dev_.live_pages(), 0u);
  ASSERT_TRUE(tree.Destroy().ok());
  EXPECT_EQ(dev_.live_pages(), 0u);
  EXPECT_EQ(tree.size(), 0u);
}

TEST_F(BPlusTreeTest, SpaceIsLinearInN) {
  // O(n/B) pages: with fanout f and half-full splits, at most ~2n/f leaf
  // pages plus a geometric number of internal pages.
  BPlusTree tree(&pager_);
  const uint64_t n = 5000;
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(tree.Insert(static_cast<int64_t>(i * 7 % n), i).ok());
  }
  double f = tree.fanout();
  double bound = 2.0 * (n / f) * (1.0 + 2.0 / f) + 4;
  EXPECT_LE(dev_.live_pages(), static_cast<uint64_t>(bound * 1.5));
}

TEST_F(BPlusTreeTest, QueryIoIsLogarithmicPlusOutput) {
  // E1 shape check: a range query costs O(log_B n + t/B) device reads.
  std::vector<BtEntry> entries;
  const int64_t n = 20000;
  for (int64_t i = 0; i < n; ++i) {
    entries.push_back({i, static_cast<uint64_t>(i), 0});
  }
  auto tree = BPlusTree::BulkLoad(&pager_, entries);
  ASSERT_TRUE(tree.ok());

  for (int64_t t : {1, 10, 100, 1000, 5000}) {
    dev_.ResetStats();
    std::vector<BtEntry> out;
    VectorSink<BtEntry> sink(&out);
    ASSERT_TRUE(tree->RangeScan(1000, 1000 + t - 1, &sink).ok());
    ASSERT_EQ(out.size(), static_cast<size_t>(t));
    double logB = std::log(static_cast<double>(n)) / std::log(tree->fanout());
    double expected = logB + static_cast<double>(t) / tree->fanout();
    // Constant-factor slack: path + output pages + one boundary page each.
    EXPECT_LE(dev_.stats().device_reads, 3 * expected + 6)
        << "t=" << t;
  }
}

// Property test: the tree must agree with a std::multimap oracle under a
// random workload of inserts, deletes, and range queries.
class BPlusTreeRandomTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BPlusTreeRandomTest, MatchesOracle) {
  BlockDevice dev(kPageSize);
  Pager pager(&dev, 0);
  BPlusTree tree(&pager);
  std::multimap<int64_t, uint64_t> oracle;
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int64_t> key_dist(-500, 500);

  uint64_t next_id = 0;
  for (int step = 0; step < 3000; ++step) {
    int op = static_cast<int>(rng() % 10);
    if (op < 6) {  // insert
      int64_t k = key_dist(rng);
      uint64_t v = next_id++;
      ASSERT_TRUE(tree.Insert(k, v).ok());
      oracle.emplace(k, v);
    } else if (op < 8 && !oracle.empty()) {  // delete random existing
      auto it = oracle.begin();
      std::advance(it, rng() % oracle.size());
      bool found = false;
      ASSERT_TRUE(tree.Delete(it->first, it->second, &found).ok());
      EXPECT_TRUE(found);
      oracle.erase(it);
    } else {  // range query
      int64_t a = key_dist(rng), b = key_dist(rng);
      if (a > b) std::swap(a, b);
      std::vector<BtEntry> got;
      VectorSink<BtEntry> sink(&got);
      ASSERT_TRUE(tree.RangeScan(a, b, &sink).ok());
      std::vector<BtEntry> want;
      for (auto it = oracle.lower_bound(a);
           it != oracle.end() && it->first <= b; ++it) {
        want.push_back({it->first, it->second, 0});
      }
      std::sort(want.begin(), want.end());
      ASSERT_EQ(got, want) << "range [" << a << "," << b << "] seed "
                           << GetParam();
    }
  }
  EXPECT_EQ(tree.size(), oracle.size());
  ASSERT_TRUE(tree.CheckInvariants().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BPlusTreeRandomTest,
                         ::testing::Values(1u, 2u, 3u, 17u, 42u));

// A device fault inside a split chain that reaches the root. The chain is
// not fault-atomic (DESIGN.md §13), but the failed insert's rollback must
// never free a page the tree still links to: the root and every page of
// the leaf chain stay live, so a full scan reads no freed page.
TEST(BPlusTreeFaultTest, FailedRootSplitNeverLinksAFreePage) {
  // Sequential keys into a fresh tree: the insert of key `m` is the first
  // to grow the tree to `height`. Height 2 splits a lone leaf; height 3
  // cascades a leaf split into a full root.
  for (uint32_t height : {2u, 3u}) {
    int64_t m = 0;
    {
      BlockDevice dev(kPageSize);
      Pager pager(&dev, 0);
      BPlusTree tree(&pager);
      while (tree.height() < height) {
        ASSERT_TRUE(tree.Insert(m, static_cast<uint64_t>(m)).ok());
        m++;
      }
      m--;
    }
    uint64_t needed = 0;  // transfers the insert takes fault-free
    for (int64_t k = -1; k < 64; ++k) {
      BlockDevice dev(kPageSize);
      Pager pager(&dev, 0);
      BPlusTree tree(&pager);
      for (int64_t i = 0; i < m; ++i) {
        ASSERT_TRUE(tree.Insert(i, static_cast<uint64_t>(i)).ok());
      }
      const IoStats before = dev.stats();
      dev.SetFailAfter(k);
      Status s = tree.Insert(m, static_cast<uint64_t>(m));
      dev.SetFailAfter(-1);
      if (k < 0) {  // dry run
        ASSERT_TRUE(s.ok()) << s.ToString();
        ASSERT_EQ(tree.height(), height);
        needed = (dev.stats() - before).TotalIos();
        continue;
      }
      if (static_cast<uint64_t>(k) >= needed) break;
      EXPECT_FALSE(s.ok()) << "height " << height << " fault at " << k;
      EXPECT_TRUE(dev.is_live(tree.root()))
          << "height " << height << " fault at " << k;
      std::vector<BtEntry> out;
      VectorSink<BtEntry> sink(&out);
      Status scan = tree.RangeScan(INT64_MIN, INT64_MAX, &sink);
      EXPECT_TRUE(scan.ok()) << "height " << height << " fault at " << k
                             << ": " << scan.ToString();
    }
    EXPECT_GE(needed, 3u);
  }
}

// Parameterized across page sizes: fanout changes, behaviour must not.
class BPlusTreePageSizeTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BPlusTreePageSizeTest, WorksAcrossFanouts) {
  BlockDevice dev(GetParam());
  Pager pager(&dev, 0);
  BPlusTree tree(&pager);
  const int n = 600;
  std::mt19937 rng(99);
  std::vector<int> keys(n);
  for (int i = 0; i < n; ++i) keys[i] = i;
  std::shuffle(keys.begin(), keys.end(), rng);
  for (int k : keys) {
    ASSERT_TRUE(tree.Insert(k, static_cast<uint64_t>(k)).ok());
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
  std::vector<BtEntry> out;
  VectorSink<BtEntry> sink(&out);
  ASSERT_TRUE(tree.RangeScan(0, n, &sink).ok());
  ASSERT_EQ(out.size(), static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) EXPECT_EQ(out[i].key, i);
}

INSTANTIATE_TEST_SUITE_P(PageSizes, BPlusTreePageSizeTest,
                         ::testing::Values(128u, 160u, 256u, 1024u, 4096u));

}  // namespace
}  // namespace ccidx
