// Tests for the external priority search tree (Lemma 4.1 / ref [17]):
// oracle equivalence on 3-sided queries, heap-order invariants, space, and
// the O(log2 n + t/B) query I/O shape; then the §5 dynamization of the
// same tree (insert + delete from an empty or built handle, churn against
// the oracle, balance under sorted inserts, fault-atomic inserts).

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "ccidx/core/metablock_tree.h"  // PageSizeForBranching
#include "ccidx/pst/external_pst.h"
#include "ccidx/testutil/generators.h"
#include "ccidx/testutil/oracles.h"

namespace ccidx {
namespace {

constexpr uint32_t kB = 10;

class ExternalPstTest : public ::testing::Test {
 protected:
  ExternalPstTest() : dev_(PageSizeForBranching(kB)), pager_(&dev_, 0) {}

  BlockDevice dev_;
  Pager pager_;
};

TEST_F(ExternalPstTest, EmptyTree) {
  auto pst = ExternalPst::Build(&pager_, std::vector<Point>{});
  ASSERT_TRUE(pst.ok());
  std::vector<Point> out;
  VectorSink<Point> sink(&out);
  ASSERT_TRUE(pst->Query({0, 100, 0}, &sink).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(pst->CheckInvariants().ok());
}

TEST_F(ExternalPstTest, SinglePoint) {
  auto pst = ExternalPst::Build(&pager_, std::vector<Point>{{5, 7, 42}});
  ASSERT_TRUE(pst.ok());
  std::vector<Point> out;
  VectorSink<Point> sink(&out);
  ASSERT_TRUE(pst->Query({0, 10, 0}, &sink).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 42u);
  out.clear();
  ASSERT_TRUE(pst->Query({6, 10, 0}, &sink).ok());  // x misses
  EXPECT_TRUE(out.empty());
  out.clear();
  ASSERT_TRUE(pst->Query({0, 10, 8}, &sink).ok());  // y misses
  EXPECT_TRUE(out.empty());
}

TEST_F(ExternalPstTest, MatchesOracleOnRandomSets) {
  for (uint32_t seed : {1u, 5u, 9u}) {
    BlockDevice dev(PageSizeForBranching(kB));
    Pager pager(&dev, 0);
    auto points = RandomPoints(3000, 1000, seed);
    PointOracle oracle(points);
    auto pst = ExternalPst::Build(&pager, points);
    ASSERT_TRUE(pst.ok());
    ASSERT_TRUE(pst->CheckInvariants().ok());
    std::mt19937 rng(seed * 1000);
    for (int i = 0; i < 80; ++i) {
      Coord x1 = static_cast<Coord>(rng() % 1000);
      Coord x2 = static_cast<Coord>(rng() % 1000);
      if (x1 > x2) std::swap(x1, x2);
      Coord y = static_cast<Coord>(rng() % 1000);
      ThreeSidedQuery q{x1, x2, y};
      std::vector<Point> got;
      VectorSink<Point> sink(&got);
      ASSERT_TRUE(pst->Query(q, &sink).ok());
      SortPoints(&got);
      EXPECT_EQ(got, oracle.ThreeSided(q)) << q.ToString();
    }
  }
}

TEST_F(ExternalPstTest, InvertedRangeIsEmpty) {
  auto pst = ExternalPst::Build(&pager_, RandomPoints(100, 100, 2));
  ASSERT_TRUE(pst.ok());
  std::vector<Point> out;
  VectorSink<Point> sink(&out);
  ASSERT_TRUE(pst->Query({50, 10, 0}, &sink).ok());
  EXPECT_TRUE(out.empty());
}

TEST_F(ExternalPstTest, DuplicateCoordinates) {
  std::vector<Point> points;
  for (uint64_t i = 0; i < 500; ++i) {
    points.push_back({static_cast<Coord>(i % 7), static_cast<Coord>(i % 11),
                      i});
  }
  PointOracle oracle(points);
  auto pst = ExternalPst::Build(&pager_, points);
  ASSERT_TRUE(pst.ok());
  ASSERT_TRUE(pst->CheckInvariants().ok());
  for (Coord x1 = 0; x1 < 7; ++x1) {
    for (Coord y = 0; y < 11; ++y) {
      ThreeSidedQuery q{x1, 6, y};
      std::vector<Point> got;
      VectorSink<Point> sink(&got);
      ASSERT_TRUE(pst->Query(q, &sink).ok());
      SortPoints(&got);
      EXPECT_EQ(got, oracle.ThreeSided(q)) << q.ToString();
    }
  }
}

TEST_F(ExternalPstTest, SpaceIsLinear) {
  const size_t n = 20000;
  auto points = RandomPoints(n, 100000, 3);
  auto pst = ExternalPst::Build(&pager_, points);
  ASSERT_TRUE(pst.ok());
  auto pages = pst->CountPages();
  ASSERT_TRUE(pages.ok());
  // One page per node; nodes hold ~B points each (internal ones full).
  EXPECT_LE(*pages, 3 * n / kB + 4);
}

TEST_F(ExternalPstTest, QueryIoIsLog2PlusOutput) {
  const size_t n = 20000;
  auto points = RandomPoints(n, 100000, 4);
  PointOracle oracle(points);
  auto pst = ExternalPst::Build(&pager_, points);
  ASSERT_TRUE(pst.ok());
  double log2n = std::log2(static_cast<double>(n));
  std::mt19937 rng(77);
  for (int i = 0; i < 40; ++i) {
    Coord x1 = static_cast<Coord>(rng() % 100000);
    Coord x2 = std::min<Coord>(99999, x1 + static_cast<Coord>(rng() % 50000));
    Coord y = static_cast<Coord>(rng() % 100000);
    ThreeSidedQuery q{x1, x2, y};
    size_t t = oracle.ThreeSided(q).size();
    dev_.ResetStats();
    std::vector<Point> got;
    VectorSink<Point> sink(&got);
    ASSERT_TRUE(pst->Query(q, &sink).ok());
    ASSERT_EQ(got.size(), t);
    double budget = 4 * log2n + 4.0 * (static_cast<double>(t) / kB) + 8;
    EXPECT_LE(dev_.stats().device_reads, budget)
        << q.ToString() << " t=" << t;
  }
}

TEST_F(ExternalPstTest, FreeReleasesAllPages) {
  auto pst = ExternalPst::Build(&pager_, RandomPoints(2000, 5000, 5));
  ASSERT_TRUE(pst.ok());
  EXPECT_GT(dev_.live_pages(), 0u);
  ASSERT_TRUE(pst->Free().ok());
  EXPECT_EQ(dev_.live_pages(), 0u);
}

TEST_F(ExternalPstTest, OpenByRootSeesSameData) {
  auto points = RandomPoints(500, 1000, 6);
  PointOracle oracle(points);
  auto built = ExternalPst::Build(&pager_, points);
  ASSERT_TRUE(built.ok());
  ExternalPst reopened = ExternalPst::Open(&pager_, built->root());
  ThreeSidedQuery q{100, 800, 300};
  std::vector<Point> got;
  VectorSink<Point> sink(&got);
  ASSERT_TRUE(reopened.Query(q, &sink).ok());
  SortPoints(&got);
  EXPECT_EQ(got, oracle.ThreeSided(q));
}

// Two-sided queries (xlo = -inf) are the stabbing-relevant special case.
TEST_F(ExternalPstTest, TwoSidedSpecialCase) {
  auto points = RandomPoints(1500, 2000, 7);
  PointOracle oracle(points);
  auto pst = ExternalPst::Build(&pager_, points);
  ASSERT_TRUE(pst.ok());
  for (Coord a = 0; a <= 2000; a += 157) {
    ThreeSidedQuery q{kCoordMin, a, a};
    std::vector<Point> got;
    VectorSink<Point> sink(&got);
    ASSERT_TRUE(pst->Query(q, &sink).ok());
    SortPoints(&got);
    EXPECT_EQ(got, oracle.ThreeSided(q)) << "a=" << a;
  }
}

class ExternalPstSizeSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(ExternalPstSizeSweep, OracleEquivalence) {
  BlockDevice dev(PageSizeForBranching(kB));
  Pager pager(&dev, 0);
  auto points = RandomPoints(GetParam(), 3000, 11);
  PointOracle oracle(points);
  auto pst = ExternalPst::Build(&pager, points);
  ASSERT_TRUE(pst.ok());
  ASSERT_TRUE(pst->CheckInvariants().ok());
  std::mt19937 rng(13);
  for (int i = 0; i < 40; ++i) {
    Coord x1 = static_cast<Coord>(rng() % 3000);
    Coord x2 = static_cast<Coord>(rng() % 3000);
    if (x1 > x2) std::swap(x1, x2);
    ThreeSidedQuery q{x1, x2, static_cast<Coord>(rng() % 3000)};
    std::vector<Point> got;
    VectorSink<Point> sink(&got);
    ASSERT_TRUE(pst->Query(q, &sink).ok());
    SortPoints(&got);
    EXPECT_EQ(got, oracle.ThreeSided(q)) << q.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ExternalPstSizeSweep,
                         ::testing::Values(1, 2, kB, kB + 1, 100, 1000,
                                           5000));

class ExternalPstUpdateTest : public ExternalPstTest {};

TEST_F(ExternalPstUpdateTest, EmptyTree) {
  ExternalPst pst(&pager_);
  std::vector<Point> out;
  VectorSink<Point> sink(&out);
  ASSERT_TRUE(pst.Query({0, 10, 0}, &sink).ok());
  EXPECT_TRUE(out.empty());
  bool found = true;
  ASSERT_TRUE(pst.Delete({1, 2, 3}, &found).ok());
  EXPECT_FALSE(found);
  ASSERT_TRUE(pst.CheckInvariants().ok());
}

TEST_F(ExternalPstUpdateTest, PureInsertionMatchesOracle) {
  ExternalPst pst(&pager_);
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

TEST_F(ExternalPstUpdateTest, SortedInsertsStayBalanced) {
  // Ascending inserts are the adversarial case for PST routing; the
  // depth-triggered global rebuilds must keep the depth envelope.
  ExternalPst pst(&pager_);
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

TEST_F(ExternalPstUpdateTest, InsertDeleteChurnMatchesOracle) {
  ExternalPst pst(&pager_);
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

TEST_F(ExternalPstUpdateTest, DeleteMissingAndDoubleDelete) {
  ExternalPst pst(&pager_);
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

TEST_F(ExternalPstUpdateTest, BulkBuildThenChurn) {
  auto points = RandomPoints(2000, 1000, 4);
  auto pst = ExternalPst::Build(&pager_, points);
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

TEST_F(ExternalPstUpdateTest, QueryIoStaysLogarithmicUnderChurn) {
  ExternalPst pst(&pager_);
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

TEST_F(ExternalPstUpdateTest, FreeAfterInsertsReleasesAllPages) {
  ExternalPst pst(&pager_);
  for (const Point& p : RandomPoints(1500, 2000, 7)) {
    ASSERT_TRUE(pst.Insert(p).ok());
  }
  EXPECT_GT(dev_.live_pages(), 0u);
  ASSERT_TRUE(pst.Free().ok());
  EXPECT_EQ(dev_.live_pages(), 0u);
}

TEST(ExternalPstFaultTest, FailedInsertLeavesTreeUnchanged) {
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
      ExternalPst pst(&pager);
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

}  // namespace
}  // namespace ccidx
