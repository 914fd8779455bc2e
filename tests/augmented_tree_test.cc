// Tests of the Section 3.2 update engine (core/augmented_tree.h) that run
// on both of its families: the dynamic metablock tree (Theorem 3.7) and
// the dynamic 3-sided tree (Lemma 4.4). Each test takes the family as its
// type parameter; the family traits below only say how to query it.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "ccidx/core/augmented_metablock_tree.h"
#include "ccidx/core/augmented_three_sided_tree.h"
#include "ccidx/core/metablock_tree.h"  // PageSizeForBranching
#include "ccidx/testutil/generators.h"
#include "ccidx/testutil/oracles.h"

namespace ccidx {
namespace {

constexpr uint32_t kB = 8;

// Diagonal corner queries at every `step` from 0 to `ymax`.
struct MetablockFamily {
  using Tree = AugmentedMetablockTree;
  // Own orgs (3x) + TS (1x) + TD copies (<= ~1x) + control/index overhead.
  static constexpr double kMaxPagesPerPointPage = 12.0;

  static std::vector<DiagonalQuery> Queries(Coord xmax, Coord ymax,
                                            Coord step) {
    (void)xmax;
    std::vector<DiagonalQuery> qs;
    for (Coord a = 0; a <= ymax; a += step) qs.push_back({a});
    return qs;
  }
  static std::vector<Point> Expected(const PointOracle& oracle,
                                     const DiagonalQuery& q) {
    return oracle.Diagonal(q);
  }
};

// Width-3 slabs from every x in [0, xmax), bottoms every `step`.
struct ThreeSidedFamily {
  using Tree = AugmentedThreeSidedTree;
  // Adds the own and children-union PSTs, two TS chains per child, and a
  // PST for TD.
  static constexpr double kMaxPagesPerPointPage = 16.0;

  static std::vector<ThreeSidedQuery> Queries(Coord xmax, Coord ymax,
                                              Coord step) {
    std::vector<ThreeSidedQuery> qs;
    for (Coord x = 0; x < xmax; ++x) {
      for (Coord y = 0; y <= ymax; y += step) qs.push_back({x, x + 3, y});
    }
    return qs;
  }
  static std::vector<Point> Expected(const PointOracle& oracle,
                                     const ThreeSidedQuery& q) {
    return oracle.ThreeSided(q);
  }
};

template <typename Family>
class AugmentedTreeFamilyTest : public ::testing::Test {
 protected:
  using Tree = typename Family::Tree;

  AugmentedTreeFamilyTest()
      : dev_(PageSizeForBranching(kB)), pager_(&dev_, 0) {}

  void ExpectMatchesOracle(const Tree& tree, const PointOracle& oracle,
                           Coord xmax, Coord ymax, Coord step) {
    for (const auto& q : Family::Queries(xmax, ymax, step)) {
      std::vector<Point> got;
      VectorSink<Point> sink(&got);
      ASSERT_TRUE(tree.Query(q, &sink).ok());
      SortPoints(&got);
      ASSERT_EQ(got, Family::Expected(oracle, q)) << q.ToString();
    }
  }

  BlockDevice dev_;
  Pager pager_;
};

using Families = ::testing::Types<MetablockFamily, ThreeSidedFamily>;
TYPED_TEST_SUITE(AugmentedTreeFamilyTest, Families);

// Heavy x duplication stresses the leaf splits (the 3-sided family's
// tie-free split defers a split inside an equal-x run); the delete pass
// then trips the purge rebuild over the same duplicates.
TYPED_TEST(AugmentedTreeFamilyTest, DuplicateXRunsSurviveSplits) {
  using Tree = typename TestFixture::Tree;
  constexpr Coord kXs = 9;  // y >= kXs keeps every point above the diagonal
  Tree tree(&this->pager_);
  PointOracle oracle;
  std::vector<Point> points;
  std::mt19937 rng(12);
  for (uint64_t i = 0; i < 10 * kB * kB; ++i) {
    Point p{static_cast<Coord>(rng() % kXs),
            kXs + static_cast<Coord>(rng() % 5000), i};
    ASSERT_TRUE(tree.Insert(p).ok());
    oracle.Insert(p);
    points.push_back(p);
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
  this->ExpectMatchesOracle(tree, oracle, kXs, kXs + 5000, 977);

  // Delete two points in three, in random order.
  std::shuffle(points.begin(), points.end(), rng);
  const size_t deletes = points.size() * 2 / 3;
  for (size_t i = 0; i < deletes; ++i) {
    bool found = false;
    ASSERT_TRUE(tree.Delete(points[i], &found).ok());
    ASSERT_TRUE(found) << i;
    ASSERT_TRUE(oracle.Erase(points[i]));
  }
  EXPECT_LT(tree.outstanding_tombstones(), deletes) << "no purge ran";
  EXPECT_EQ(tree.size(), points.size() - deletes);
  ASSERT_TRUE(tree.CheckInvariants().ok());
  this->ExpectMatchesOracle(tree, oracle, kXs, kXs + 5000, 977);
}

TYPED_TEST(AugmentedTreeFamilyTest, SpaceStaysLinear) {
  using Tree = typename TestFixture::Tree;
  Tree tree(&this->pager_);
  const size_t n = 40 * kB * kB;
  auto points = RandomPointsAboveDiagonal(n, 50000, 6);
  for (const Point& p : points) ASSERT_TRUE(tree.Insert(p).ok());
  double pages_per_point_page =
      static_cast<double>(this->dev_.live_pages()) /
      (static_cast<double>(n) / kB);
  EXPECT_LE(pages_per_point_page, TypeParam::kMaxPagesPerPointPage);
}

}  // namespace
}  // namespace ccidx
