// Fault-injection tests: every structure must surface device failures as
// Status (never abort or return wrong results silently), at any point in a
// query, insert or delete.

#include <gtest/gtest.h>

#include <type_traits>

#include "ccidx/bptree/bptree.h"
#include "ccidx/core/augmented_metablock_tree.h"
#include "ccidx/core/augmented_three_sided_tree.h"
#include "ccidx/core/metablock_tree.h"
#include "ccidx/core/three_sided_tree.h"
#include "ccidx/interval/interval_index.h"
#include "ccidx/pst/external_pst.h"
#include "ccidx/testutil/generators.h"

namespace ccidx {
namespace {

constexpr uint32_t kB = 8;

// Runs `op` with the device failing after each possible number of I/Os in
// [0, healthy_ios); every run must return kIoError (not crash). Then
// verifies a healthy run still succeeds (state not poisoned by failures
// mid-operation for read-only ops).
template <typename Op>
void SweepFailurePoints(BlockDevice* dev, uint64_t healthy_ios, Op op) {
  for (uint64_t k = 0; k < healthy_ios; ++k) {
    dev->SetFailAfter(static_cast<int64_t>(k));
    Status s = op();
    EXPECT_FALSE(s.ok()) << "expected failure at injected op " << k;
    EXPECT_EQ(s.code(), StatusCode::kIoError) << s.ToString();
  }
  dev->SetFailAfter(-1);
  EXPECT_TRUE(op().ok());
}

TEST(FaultInjectionTest, BptreeQueryPropagatesErrors) {
  BlockDevice dev(256);
  Pager pager(&dev, 0);
  BPlusTree tree(&pager);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(tree.Insert(i, static_cast<uint64_t>(i)).ok());
  }
  dev.ResetStats();
  std::vector<BtEntry> out;
  VectorSink<BtEntry> sink(&out);
  ASSERT_TRUE(tree.RangeScan(100, 200, &sink).ok());
  uint64_t healthy = dev.stats().TotalIos();
  ASSERT_GT(healthy, 0u);
  SweepFailurePoints(&dev, healthy, [&] {
    std::vector<BtEntry> o;
    VectorSink<BtEntry> sink(&o);
    return tree.RangeScan(100, 200, &sink);
  });
}

TEST(FaultInjectionTest, MetablockQueryPropagatesErrors) {
  BlockDevice dev(PageSizeForBranching(kB));
  Pager pager(&dev, 0);
  auto tree = MetablockTree::Build(
      &pager, RandomPointsAboveDiagonal(10 * kB * kB, 2000, 1));
  ASSERT_TRUE(tree.ok());
  dev.ResetStats();
  std::vector<Point> out;
  VectorSink<Point> sink(&out);
  ASSERT_TRUE(tree->Query({500}, &sink).ok());
  uint64_t healthy = dev.stats().TotalIos();
  SweepFailurePoints(&dev, healthy, [&] {
    std::vector<Point> o;
    VectorSink<Point> sink(&o);
    return tree->Query({500}, &sink);
  });
}

TEST(FaultInjectionTest, ThreeSidedQueryPropagatesErrors) {
  BlockDevice dev(PageSizeForBranching(kB));
  Pager pager(&dev, 0);
  auto tree =
      ThreeSidedTree::Build(&pager, RandomPoints(10 * kB * kB, 2000, 2));
  ASSERT_TRUE(tree.ok());
  dev.ResetStats();
  std::vector<Point> out;
  VectorSink<Point> sink(&out);
  ASSERT_TRUE(tree->Query({200, 1500, 300}, &sink).ok());
  uint64_t healthy = dev.stats().TotalIos();
  SweepFailurePoints(&dev, healthy, [&] {
    std::vector<Point> o;
    VectorSink<Point> sink(&o);
    return tree->Query({200, 1500, 300}, &sink);
  });
}

TEST(FaultInjectionTest, PstQueryPropagatesErrors) {
  BlockDevice dev(PageSizeForBranching(kB));
  Pager pager(&dev, 0);
  auto pst = ExternalPst::Build(&pager, RandomPoints(1000, 2000, 3));
  ASSERT_TRUE(pst.ok());
  dev.ResetStats();
  std::vector<Point> out;
  VectorSink<Point> sink(&out);
  ASSERT_TRUE(pst->Query({100, 1900, 100}, &sink).ok());
  uint64_t healthy = dev.stats().TotalIos();
  SweepFailurePoints(&dev, healthy, [&] {
    std::vector<Point> o;
    VectorSink<Point> sink(&o);
    return pst->Query({100, 1900, 100}, &sink);
  });
}

TEST(FaultInjectionTest, IntervalStabPropagatesErrors) {
  BlockDevice dev(PageSizeForBranching(kB));
  Pager pager(&dev, 0);
  auto idx = IntervalIndex::Build(
      &pager, RandomIntervals(800, 5000, IntervalWorkload::kUniform, 4));
  ASSERT_TRUE(idx.ok());
  dev.ResetStats();
  std::vector<Interval> out;
  VectorSink<Interval> sink(&out);
  ASSERT_TRUE(idx->Intersect(1000, 1500, &sink).ok());
  uint64_t healthy = dev.stats().TotalIos();
  SweepFailurePoints(&dev, healthy, [&] {
    std::vector<Interval> o;
    VectorSink<Interval> sink(&o);
    return idx->Intersect(1000, 1500, &sink);
  });
}

TEST(FaultInjectionTest, BptreeInsertFailureLeavesTreeQueryable) {
  BlockDevice dev(256);
  Pager pager(&dev, 0);
  BPlusTree tree(&pager);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(tree.Insert(i, static_cast<uint64_t>(i)).ok());
  }
  dev.SetFailAfter(1);
  Status s = tree.Insert(1000, 1000);
  EXPECT_FALSE(s.ok());
  dev.SetFailAfter(-1);
  // The tree remains queryable after a failed insert.
  std::vector<BtEntry> out;
  VectorSink<BtEntry> sink(&out);
  EXPECT_TRUE(tree.RangeScan(0, 199, &sink).ok());
  EXPECT_GE(out.size(), 200u);
}

// An insert whose leaf store fails leaves the entry off the device, so
// size() must not count it; a retry then inserts it.
TEST(FaultInjectionTest, BptreeInsertFailsCleanly) {
  BlockDevice dev(PageSizeForBranching(16));
  Pager pager(&dev, 0);
  BPlusTree tree(&pager);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(tree.Insert(i, static_cast<uint64_t>(i)).ok());
  }
  auto scan_count = [&] {
    std::vector<BtEntry> out;
    VectorSink<BtEntry> sink(&out);
    EXPECT_TRUE(tree.RangeScan(kCoordMin, kCoordMax, &sink).ok());
    return out.size();
  };
  // Three reads reach the leaf (the root's routing pin, the internal node
  // and the leaf's load); the transfer after them, the leaf store, fails.
  dev.SetFailAfter(3);
  Status s = tree.Insert(100, 1000);
  dev.SetFailAfter(-1);
  EXPECT_EQ(s.code(), StatusCode::kIoError) << s.ToString();
  EXPECT_EQ(tree.size(), scan_count());

  ASSERT_TRUE(tree.Insert(100, 1000).ok());
  EXPECT_EQ(tree.size(), scan_count());
  EXPECT_EQ(tree.size(), 201u);

  // Splits: fail each transfer of each insert in turn until it succeeds.
  // A split that fails after its leaf halves are stored leaves the entry
  // reachable through the leaf chain, so it counts, and the retry adds a
  // duplicate; either way size() is what a scan counts.
  for (uint64_t v = 2000; v < 2064; ++v) {
    for (int64_t k = 0;; ++k) {
      dev.SetFailAfter(k);
      Status st = tree.Insert(100, v);
      dev.SetFailAfter(-1);
      ASSERT_EQ(tree.size(), scan_count()) << "value " << v << " fault " << k;
      if (st.ok()) break;
    }
  }
}

// A delete whose leaf store fails leaves the entry on the device, so it
// must report not-found and keep size() equal to what a scan counts; a
// retry then deletes it.
TEST(FaultInjectionTest, BptreeDeleteFailsCleanly) {
  BlockDevice dev(PageSizeForBranching(16));
  Pager pager(&dev, 0);
  BPlusTree tree(&pager);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(tree.Insert(i, static_cast<uint64_t>(i)).ok());
  }
  auto scan_count = [&] {
    std::vector<BtEntry> out;
    VectorSink<BtEntry> sink(&out);
    EXPECT_TRUE(tree.RangeScan(kCoordMin, kCoordMax, &sink).ok());
    return out.size();
  };
  // Four reads reach the leaf (root, internal node, the leaf's routing
  // pin and its load); the transfer after them, the leaf store, fails.
  dev.SetFailAfter(4);
  bool found = true;
  Status s = tree.Delete(100, 100, &found);
  dev.SetFailAfter(-1);
  EXPECT_EQ(s.code(), StatusCode::kIoError) << s.ToString();
  EXPECT_FALSE(found);
  EXPECT_EQ(tree.size(), 200u);
  EXPECT_EQ(scan_count(), 200u);

  ASSERT_TRUE(tree.Delete(100, 100, &found).ok());
  EXPECT_TRUE(found);
  EXPECT_EQ(tree.size(), 199u);
  EXPECT_EQ(scan_count(), 199u);
}

// In both augmented families a failed insert surfaces a Status and leaves
// a tree that still answers a query over everything.
TEST(FaultInjectionTest, AugmentedInsertFailsCleanly) {
  auto run = [](auto family, const auto& everything) {
    using Tree = typename decltype(family)::type;
    BlockDevice dev(PageSizeForBranching(kB));
    Pager pager(&dev, 0);
    Tree tree(&pager);
    for (Coord i = 0; i < 300; ++i) {
      ASSERT_TRUE(tree.Insert({i, i + 5, static_cast<uint64_t>(i)}).ok());
    }
    dev.SetFailAfter(2);
    Status s = tree.Insert({400, 500, 999});
    EXPECT_FALSE(s.ok());
    dev.SetFailAfter(-1);
    std::vector<Point> out;
    VectorSink<Point> sink(&out);
    EXPECT_TRUE(tree.Query(everything, &sink).ok());
  };
  run(std::type_identity<AugmentedMetablockTree>{}, DiagonalQuery{100});
  run(std::type_identity<AugmentedThreeSidedTree>{},
      ThreeSidedQuery{kCoordMin, kCoordMax, kCoordMin});
}

}  // namespace
}  // namespace ccidx
