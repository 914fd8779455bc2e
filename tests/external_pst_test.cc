// Tests for the external priority search tree (Lemma 4.1 / ref [17]):
// oracle equivalence on 3-sided queries, heap-order invariants, space, and
// the O(log2 n + t/B) query I/O shape.

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

}  // namespace
}  // namespace ccidx
