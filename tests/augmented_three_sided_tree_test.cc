// Tests for the semi-dynamic 3-sided metablock tree (Lemma 4.4): oracle
// equivalence under interleaved inserts and queries across query shapes,
// agreement with the static tree, bounds, and adversarial insert orders.

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "ccidx/core/augmented_three_sided_tree.h"
#include "ccidx/core/metablock_tree.h"  // PageSizeForBranching
#include "ccidx/core/three_sided_tree.h"
#include "ccidx/testutil/generators.h"
#include "ccidx/testutil/oracles.h"

namespace ccidx {
namespace {

constexpr uint32_t kB = 8;

class AugmentedThreeSidedTest : public ::testing::Test {
 protected:
  AugmentedThreeSidedTest()
      : dev_(PageSizeForBranching(kB)), pager_(&dev_, 0) {}

  void CheckAgainstOracle(const AugmentedThreeSidedTree& tree,
                          const PointOracle& oracle, Coord domain,
                          uint32_t seed, int queries) {
    std::mt19937 rng(seed);
    for (int i = 0; i < queries; ++i) {
      Coord x1 = static_cast<Coord>(rng() % domain);
      Coord x2 = static_cast<Coord>(rng() % domain);
      if (x1 > x2) std::swap(x1, x2);
      ThreeSidedQuery q{x1, x2, static_cast<Coord>(rng() % domain)};
      std::vector<Point> got;
      VectorSink<Point> sink(&got);
      ASSERT_TRUE(tree.Query(q, &sink).ok());
      SortPoints(&got);
      ASSERT_EQ(got, oracle.ThreeSided(q)) << q.ToString();
    }
  }

  BlockDevice dev_;
  Pager pager_;
};

TEST_F(AugmentedThreeSidedTest, EmptyTree) {
  AugmentedThreeSidedTree tree(&pager_);
  std::vector<Point> out;
  VectorSink<Point> sink(&out);
  ASSERT_TRUE(tree.Query({0, 10, 0}, &sink).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(tree.CheckInvariants().ok());
}

TEST_F(AugmentedThreeSidedTest, BulkBuildMatchesOracle) {
  auto points = RandomPoints(20 * kB * kB, 3000, 1);
  PointOracle oracle(points);
  auto tree = AugmentedThreeSidedTree::Build(&pager_, points);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->CheckInvariants().ok());
  CheckAgainstOracle(*tree, oracle, 3000, 101, 80);
}

TEST_F(AugmentedThreeSidedTest, PureInsertionMatchesOracle) {
  AugmentedThreeSidedTree tree(&pager_);
  PointOracle oracle;
  auto points = RandomPoints(8 * kB * kB, 2000, 2);
  for (const Point& p : points) {
    ASSERT_TRUE(tree.Insert(p).ok());
    oracle.Insert(p);
  }
  EXPECT_EQ(tree.size(), points.size());
  ASSERT_TRUE(tree.CheckInvariants().ok());
  CheckAgainstOracle(tree, oracle, 2000, 102, 80);
}

TEST_F(AugmentedThreeSidedTest, InterleavedInsertsAndQueries) {
  AugmentedThreeSidedTree tree(&pager_);
  PointOracle oracle;
  auto points = RandomPoints(12 * kB * kB, 2500, 3);
  std::mt19937 rng(4);
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(tree.Insert(points[i]).ok());
    oracle.Insert(points[i]);
    if (i % 71 == 0) {
      Coord x1 = static_cast<Coord>(rng() % 2500);
      Coord x2 = x1 + static_cast<Coord>(rng() % 800);
      ThreeSidedQuery q{x1, x2, static_cast<Coord>(rng() % 2500)};
      std::vector<Point> got;
      VectorSink<Point> sink(&got);
      ASSERT_TRUE(tree.Query(q, &sink).ok());
      SortPoints(&got);
      ASSERT_EQ(got, oracle.ThreeSided(q)) << q.ToString() << " after " << i;
    }
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
}

TEST_F(AugmentedThreeSidedTest, AdversarialOrders) {
  for (int order = 0; order < 3; ++order) {
    BlockDevice dev(PageSizeForBranching(kB));
    Pager pager(&dev, 0);
    AugmentedThreeSidedTree tree(&pager);
    PointOracle oracle;
    const Coord n = 6 * kB * kB;
    for (Coord i = 0; i < n; ++i) {
      Coord x = order == 0 ? i : (order == 1 ? n - i : (i * 7919) % n);
      Point p{x, (x * 31 + i) % n, static_cast<uint64_t>(i)};
      ASSERT_TRUE(tree.Insert(p).ok());
      oracle.Insert(p);
    }
    ASSERT_TRUE(tree.CheckInvariants().ok()) << "order " << order;
    std::mt19937 rng(200 + order);
    for (int q = 0; q < 50; ++q) {
      Coord x1 = static_cast<Coord>(rng() % n);
      Coord x2 = x1 + static_cast<Coord>(rng() % (n / 4));
      ThreeSidedQuery query{x1, x2, static_cast<Coord>(rng() % n)};
      std::vector<Point> got;
      VectorSink<Point> sink(&got);
      ASSERT_TRUE(tree.Query(query, &sink).ok());
      SortPoints(&got);
      ASSERT_EQ(got, oracle.ThreeSided(query))
          << query.ToString() << " order " << order;
    }
  }
}

TEST_F(AugmentedThreeSidedTest, HighYInsertsChurnTheRoot) {
  // Ever-higher y values pile into the root and force push-downs of the
  // old points — the TD / snapshot staleness stress case.
  AugmentedThreeSidedTree tree(&pager_);
  PointOracle oracle;
  const Coord n = 8 * kB * kB;
  for (Coord i = 0; i < n; ++i) {
    Point p{i % 64, 1000 + i, static_cast<uint64_t>(i)};
    ASSERT_TRUE(tree.Insert(p).ok());
    oracle.Insert(p);
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
  std::mt19937 rng(5);
  for (int q = 0; q < 60; ++q) {
    Coord x1 = static_cast<Coord>(rng() % 64);
    Coord x2 = x1 + static_cast<Coord>(rng() % 64);
    ThreeSidedQuery query{x1, x2, static_cast<Coord>(rng() % (1000 + n))};
    std::vector<Point> got;
    VectorSink<Point> sink(&got);
    ASSERT_TRUE(tree.Query(query, &sink).ok());
    SortPoints(&got);
    ASSERT_EQ(got, oracle.ThreeSided(query)) << query.ToString();
  }
}

TEST_F(AugmentedThreeSidedTest, AgreesWithStaticTree) {
  auto points = RandomPoints(15 * kB * kB, 4000, 6);
  BlockDevice dev2(PageSizeForBranching(kB));
  Pager pager2(&dev2, 0);
  auto st = ThreeSidedTree::Build(&pager2, points);
  ASSERT_TRUE(st.ok());
  AugmentedThreeSidedTree dyn(&pager_);
  for (const Point& p : points) ASSERT_TRUE(dyn.Insert(p).ok());
  std::mt19937 rng(7);
  for (int q = 0; q < 80; ++q) {
    Coord x1 = static_cast<Coord>(rng() % 4000);
    Coord x2 = static_cast<Coord>(rng() % 4000);
    if (x1 > x2) std::swap(x1, x2);
    ThreeSidedQuery query{x1, x2, static_cast<Coord>(rng() % 4000)};
    std::vector<Point> a, b;
    VectorSink<Point> a_sink(&a);
    ASSERT_TRUE(st->Query(query, &a_sink).ok());
    VectorSink<Point> b_sink(&b);
    ASSERT_TRUE(dyn.Query(query, &b_sink).ok());
    SortPoints(&a);
    SortPoints(&b);
    ASSERT_EQ(a, b) << query.ToString();
  }
}

TEST_F(AugmentedThreeSidedTest, QueryIoWithinLemmaBound) {
  AugmentedThreeSidedTree tree(&pager_);
  const size_t n = 30 * kB * kB;
  auto points = RandomPoints(n, 100000, 8);
  for (const Point& p : points) ASSERT_TRUE(tree.Insert(p).ok());
  PointOracle oracle(points);
  double logb = std::log(static_cast<double>(n)) / std::log(kB);
  double log2b = std::log2(static_cast<double>(kB));
  std::mt19937 rng(9);
  for (int i = 0; i < 40; ++i) {
    Coord x1 = static_cast<Coord>(rng() % 100000);
    Coord x2 = std::min<Coord>(99999, x1 + static_cast<Coord>(rng() % 30000));
    ThreeSidedQuery q{x1, x2, static_cast<Coord>(rng() % 100000)};
    size_t t = oracle.ThreeSided(q).size();
    dev_.ResetStats();
    std::vector<Point> got;
    VectorSink<Point> sink(&got);
    ASSERT_TRUE(tree.Query(q, &sink).ok());
    ASSERT_EQ(got.size(), t) << q.ToString();
    double budget =
        14 * logb + 14 * log2b + 8.0 * (static_cast<double>(t) / kB) + 40;
    EXPECT_LE(dev_.stats().device_reads, budget) << q.ToString() << " t=" << t;
  }
}

TEST_F(AugmentedThreeSidedTest, AmortizedInsertIo) {
  AugmentedThreeSidedTree tree(&pager_);
  const size_t n = 20 * kB * kB;
  auto points = RandomPoints(n, 100000, 10);
  dev_.ResetStats();
  for (const Point& p : points) ASSERT_TRUE(tree.Insert(p).ok());
  double per_insert =
      static_cast<double>(dev_.stats().TotalIos()) / static_cast<double>(n);
  double logb = std::log(static_cast<double>(n)) / std::log(kB);
  // Lemma 4.4 machinery: a constant-factor heavier than the diagonal tree
  // (PSTs, dual TS, children structures rebuilt at reorganizations).
  EXPECT_LE(per_insert, 30 * (logb + logb * logb / kB) + 30)
      << per_insert;
}

TEST_F(AugmentedThreeSidedTest, DestroyReleasesEverything) {
  AugmentedThreeSidedTree tree(&pager_);
  for (const Point& p : RandomPoints(5 * kB * kB, 2000, 11)) {
    ASSERT_TRUE(tree.Insert(p).ok());
  }
  EXPECT_GT(dev_.live_pages(), 0u);
  ASSERT_TRUE(tree.Destroy().ok());
  EXPECT_EQ(dev_.live_pages(), 0u);
}

struct DynTsParam {
  uint32_t branching;
  size_t n;
  uint32_t seed;
};

class AugmentedThreeSidedSweep
    : public ::testing::TestWithParam<DynTsParam> {};

TEST_P(AugmentedThreeSidedSweep, OracleEquivalence) {
  const DynTsParam p = GetParam();
  BlockDevice dev(PageSizeForBranching(p.branching));
  Pager pager(&dev, 0);
  AugmentedThreeSidedTree tree(&pager);
  PointOracle oracle;
  auto points = RandomPoints(p.n, 3000, p.seed);
  std::mt19937 rng(p.seed ^ 0xD1CE);
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(tree.Insert(points[i]).ok());
    oracle.Insert(points[i]);
    if (i % 113 == 0) {
      Coord x1 = static_cast<Coord>(rng() % 3000);
      Coord x2 = static_cast<Coord>(rng() % 3000);
      if (x1 > x2) std::swap(x1, x2);
      ThreeSidedQuery q{x1, x2, static_cast<Coord>(rng() % 3000)};
      std::vector<Point> got;
      VectorSink<Point> sink(&got);
      ASSERT_TRUE(tree.Query(q, &sink).ok());
      SortPoints(&got);
      ASSERT_EQ(got, oracle.ThreeSided(q)) << q.ToString() << " i=" << i;
    }
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AugmentedThreeSidedSweep,
    ::testing::Values(DynTsParam{8, 500, 1}, DynTsParam{8, 4000, 2},
                      DynTsParam{8, 9000, 3}, DynTsParam{12, 3000, 4},
                      DynTsParam{16, 6000, 5}, DynTsParam{16, 15000, 6}));

}  // namespace
}  // namespace ccidx
