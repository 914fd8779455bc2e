// Tests for the §5 dynamization: DynamicPst (insert + delete external
// priority search tree) and DynamicIntervalIndex (fully dynamic interval
// management with deletes — the capability the metablock-tree index lacks
// by the paper's own open problem).

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <set>

#include "ccidx/core/metablock_tree.h"  // PageSizeForBranching
#include "ccidx/interval/dynamic_interval_index.h"
#include "ccidx/pst/dynamic_pst.h"
#include "ccidx/testutil/generators.h"
#include "ccidx/testutil/oracles.h"

namespace ccidx {
namespace {

constexpr uint32_t kB = 10;

class DynamicPstTest : public ::testing::Test {
 protected:
  DynamicPstTest() : dev_(PageSizeForBranching(kB)), pager_(&dev_, 0) {}

  BlockDevice dev_;
  Pager pager_;
};

TEST_F(DynamicPstTest, EmptyTree) {
  DynamicPst pst(&pager_);
  std::vector<Point> out;
  VectorSink<Point> sink(&out);
  ASSERT_TRUE(pst.Query({0, 10, 0}, &sink).ok());
  EXPECT_TRUE(out.empty());
  bool found = true;
  ASSERT_TRUE(pst.Delete({1, 2, 3}, &found).ok());
  EXPECT_FALSE(found);
  ASSERT_TRUE(pst.CheckInvariants().ok());
}

TEST_F(DynamicPstTest, PureInsertionMatchesOracle) {
  DynamicPst pst(&pager_);
  PointOracle oracle;
  auto points = RandomPoints(3000, 1500, 1);
  for (const Point& p : points) {
    ASSERT_TRUE(pst.Insert(p).ok());
    oracle.Insert(p);
  }
  EXPECT_EQ(pst.size(), points.size());
  ASSERT_TRUE(pst.CheckInvariants().ok());
  std::mt19937 rng(2);
  for (int i = 0; i < 80; ++i) {
    Coord x1 = static_cast<Coord>(rng() % 1500);
    Coord x2 = static_cast<Coord>(rng() % 1500);
    if (x1 > x2) std::swap(x1, x2);
    ThreeSidedQuery q{x1, x2, static_cast<Coord>(rng() % 1500)};
    std::vector<Point> got;
    VectorSink<Point> sink(&got);
    ASSERT_TRUE(pst.Query(q, &sink).ok());
    SortPoints(&got);
    ASSERT_EQ(got, oracle.ThreeSided(q)) << q.ToString();
  }
}

TEST_F(DynamicPstTest, SortedInsertsStayBalanced) {
  // Ascending inserts are the adversarial case for PST routing; the
  // scapegoat rebuilds must keep the depth envelope.
  DynamicPst pst(&pager_);
  for (Coord i = 0; i < 4000; ++i) {
    ASSERT_TRUE(pst.Insert({i, (i * 37) % 5000,
                            static_cast<uint64_t>(i)}).ok());
  }
  ASSERT_TRUE(pst.CheckInvariants().ok());
  // Query cost must be logarithmic, not linear.
  dev_.ResetStats();
  std::vector<Point> out;
  VectorSink<Point> sink(&out);
  ASSERT_TRUE(pst.Query({2000, 2000, 0}, &sink).ok());
  EXPECT_LE(dev_.stats().device_reads,
            8 * std::log2(4000.0) + 16);
}

TEST_F(DynamicPstTest, InsertDeleteChurnMatchesOracle) {
  DynamicPst pst(&pager_);
  std::vector<Point> live;
  std::mt19937 rng(3);
  uint64_t next_id = 0;
  for (int step = 0; step < 6000; ++step) {
    int op = static_cast<int>(rng() % 10);
    if (op < 6 || live.empty()) {
      Point p{static_cast<Coord>(rng() % 800),
              static_cast<Coord>(rng() % 800), next_id++};
      ASSERT_TRUE(pst.Insert(p).ok());
      live.push_back(p);
    } else if (op < 9) {
      size_t idx = rng() % live.size();
      bool found = false;
      ASSERT_TRUE(pst.Delete(live[idx], &found).ok());
      ASSERT_TRUE(found) << "step " << step;
      live.erase(live.begin() + idx);
    } else {
      Coord x1 = static_cast<Coord>(rng() % 800);
      Coord x2 = x1 + static_cast<Coord>(rng() % 200);
      ThreeSidedQuery q{x1, x2, static_cast<Coord>(rng() % 800)};
      std::vector<Point> got;
      VectorSink<Point> sink(&got);
      ASSERT_TRUE(pst.Query(q, &sink).ok());
      SortPoints(&got);
      PointOracle oracle(live);
      ASSERT_EQ(got, oracle.ThreeSided(q))
          << q.ToString() << " step " << step;
    }
  }
  EXPECT_EQ(pst.size(), live.size());
  ASSERT_TRUE(pst.CheckInvariants().ok());
}

TEST_F(DynamicPstTest, DeleteMissingAndDoubleDelete) {
  DynamicPst pst(&pager_);
  ASSERT_TRUE(pst.Insert({5, 9, 1}).ok());
  bool found = false;
  ASSERT_TRUE(pst.Delete({5, 9, 2}, &found).ok());  // wrong id
  EXPECT_FALSE(found);
  ASSERT_TRUE(pst.Delete({5, 9, 1}, &found).ok());
  EXPECT_TRUE(found);
  ASSERT_TRUE(pst.Delete({5, 9, 1}, &found).ok());
  EXPECT_FALSE(found);
  EXPECT_EQ(pst.size(), 0u);
}

TEST_F(DynamicPstTest, BulkBuildThenChurn) {
  auto points = RandomPoints(2000, 1000, 4);
  auto pst = DynamicPst::Build(&pager_, points);
  ASSERT_TRUE(pst.ok());
  ASSERT_TRUE(pst->CheckInvariants().ok());
  std::vector<Point> live = points;
  std::mt19937 rng(5);
  for (int i = 0; i < 1000; ++i) {
    size_t idx = rng() % live.size();
    bool found = false;
    ASSERT_TRUE(pst->Delete(live[idx], &found).ok());
    ASSERT_TRUE(found);
    live.erase(live.begin() + idx);
  }
  ASSERT_TRUE(pst->CheckInvariants().ok());
  PointOracle oracle(live);
  ThreeSidedQuery q{100, 900, 200};
  std::vector<Point> got;
  VectorSink<Point> sink(&got);
  ASSERT_TRUE(pst->Query(q, &sink).ok());
  SortPoints(&got);
  EXPECT_EQ(got, oracle.ThreeSided(q));
}

TEST_F(DynamicPstTest, QueryIoStaysLogarithmicUnderChurn) {
  DynamicPst pst(&pager_);
  std::mt19937 rng(6);
  const size_t n = 20000;
  std::vector<Point> live;
  for (uint64_t i = 0; i < n; ++i) {
    Point p{static_cast<Coord>(rng() % 100000),
            static_cast<Coord>(rng() % 100000), i};
    ASSERT_TRUE(pst.Insert(p).ok());
    live.push_back(p);
  }
  for (int i = 0; i < 5000; ++i) {  // churn
    size_t idx = rng() % live.size();
    bool found = false;
    ASSERT_TRUE(pst.Delete(live[idx], &found).ok());
    live.erase(live.begin() + idx);
  }
  PointOracle oracle(live);
  double log2n = std::log2(static_cast<double>(live.size()));
  for (int i = 0; i < 30; ++i) {
    Coord x1 = static_cast<Coord>(rng() % 100000);
    Coord x2 = std::min<Coord>(99999, x1 + 30000);
    ThreeSidedQuery q{x1, x2, static_cast<Coord>(rng() % 100000)};
    size_t t = oracle.ThreeSided(q).size();
    dev_.ResetStats();
    std::vector<Point> got;
    VectorSink<Point> sink(&got);
    ASSERT_TRUE(pst.Query(q, &sink).ok());
    ASSERT_EQ(got.size(), t);
    double budget = 6 * log2n + 5.0 * (static_cast<double>(t) / kB) + 16;
    EXPECT_LE(dev_.stats().device_reads, budget) << q.ToString();
  }
}

TEST_F(DynamicPstTest, DestroyReleasesAllPages) {
  DynamicPst pst(&pager_);
  for (const Point& p : RandomPoints(1500, 2000, 7)) {
    ASSERT_TRUE(pst.Insert(p).ok());
  }
  EXPECT_GT(dev_.live_pages(), 0u);
  ASSERT_TRUE(pst.Destroy().ok());
  EXPECT_EQ(dev_.live_pages(), 0u);
}

TEST(DynamicPstFaultTest, FailedInsertLeavesTreeUnchanged) {
  // A device fault early in an insert leaves no trace: size and root move
  // only after the stores backing them succeed, and the scope frees the
  // page a failed store was meant to fill. Covers the empty-tree root
  // path and a multi-level descent.
  for (size_t initial : {size_t{0}, size_t{20}}) {
    std::vector<Point> pts = RandomPoints(initial + 1, 2000, 8);
    const Point fresh = pts.back();
    pts.pop_back();
    uint64_t needed = 0;  // transfers the insert takes fault-free
    for (int64_t k = -1; k < 3; ++k) {
      BlockDevice dev(PageSizeForBranching(kB));
      Pager pager(&dev, 0);
      DynamicPst pst(&pager);
      for (const Point& p : pts) ASSERT_TRUE(pst.Insert(p).ok());
      const uint64_t live = dev.live_pages();
      const IoStats before = dev.stats();
      dev.SetFailAfter(k);
      Status s = pst.Insert(fresh);
      dev.SetFailAfter(-1);
      if (k < 0) {  // dry run
        ASSERT_TRUE(s.ok()) << s.ToString();
        needed = (dev.stats() - before).TotalIos();
        continue;
      }
      if (static_cast<uint64_t>(k) >= needed) break;
      EXPECT_FALSE(s.ok()) << "n=" << initial << " fault at " << k;
      EXPECT_EQ(pst.size(), initial) << "n=" << initial << " fault at " << k;
      EXPECT_EQ(dev.live_pages(), live) << "n=" << initial << " fault at " << k;
      Status inv = pst.CheckInvariants();
      EXPECT_TRUE(inv.ok()) << "n=" << initial << " fault at " << k << ": "
                            << inv.ToString();
    }
    EXPECT_GE(needed, initial == 0 ? 1u : 3u);
  }
}

class DynamicIntervalTest : public ::testing::Test {
 protected:
  DynamicIntervalTest() : dev_(PageSizeForBranching(kB)), pager_(&dev_, 0) {}

  BlockDevice dev_;
  Pager pager_;
};

TEST_F(DynamicIntervalTest, FullChurnMatchesOracle) {
  DynamicIntervalIndex idx(&pager_);
  IntervalOracle oracle;
  std::vector<Interval> live;
  std::mt19937 rng(8);
  uint64_t next_id = 0;
  for (int step = 0; step < 5000; ++step) {
    int op = static_cast<int>(rng() % 10);
    if (op < 5 || live.empty()) {
      Coord lo = static_cast<Coord>(rng() % 2000);
      Interval iv{lo, lo + static_cast<Coord>(rng() % 300), next_id++};
      ASSERT_TRUE(idx.Insert(iv).ok());
      oracle.Insert(iv);
      live.push_back(iv);
    } else if (op < 8) {
      size_t i = rng() % live.size();
      bool found = false;
      ASSERT_TRUE(idx.Delete(live[i], &found).ok());
      ASSERT_TRUE(found);
      ASSERT_TRUE(oracle.Erase(live[i]));
      live.erase(live.begin() + i);
    } else if (op == 8) {
      Coord q = static_cast<Coord>(rng() % 2300);
      std::vector<Interval> got;
      VectorSink<Interval> sink(&got);
      ASSERT_TRUE(idx.Stab(q, &sink).ok());
      SortIntervals(&got);
      ASSERT_EQ(got, oracle.Stab(q)) << "stab " << q << " step " << step;
    } else {
      Coord a = static_cast<Coord>(rng() % 2300);
      Coord b = a + static_cast<Coord>(rng() % 400);
      std::vector<Interval> got;
      VectorSink<Interval> sink(&got);
      ASSERT_TRUE(idx.Intersect(a, b, &sink).ok());
      SortIntervals(&got);
      ASSERT_EQ(got, oracle.Intersect(a, b))
          << "[" << a << "," << b << "] step " << step;
    }
  }
  EXPECT_EQ(idx.size(), live.size());
}

TEST_F(DynamicIntervalTest, BulkBuildAndDelete) {
  auto intervals =
      RandomIntervals(1500, 5000, IntervalWorkload::kUniform, 9);
  auto idx = DynamicIntervalIndex::Build(&pager_, intervals);
  ASSERT_TRUE(idx.ok());
  IntervalOracle oracle;
  for (const Interval& iv : intervals) oracle.Insert(iv);
  for (size_t i = 0; i < intervals.size(); i += 3) {
    bool found = false;
    ASSERT_TRUE(idx->Delete(intervals[i], &found).ok());
    EXPECT_TRUE(found);
    ASSERT_TRUE(oracle.Erase(intervals[i]));
  }
  for (Coord q = 0; q <= 5000; q += 331) {
    std::vector<Interval> got;
    VectorSink<Interval> sink(&got);
    ASSERT_TRUE(idx->Stab(q, &sink).ok());
    SortIntervals(&got);
    ASSERT_EQ(got, oracle.Stab(q)) << "q=" << q;
  }
}

TEST_F(DynamicIntervalTest, RejectsInverted) {
  DynamicIntervalIndex idx(&pager_);
  EXPECT_FALSE(idx.Insert({9, 3, 0}).ok());
}

}  // namespace
}  // namespace ccidx
