// Tests for interval management (Prop. 2.2): stabbing and intersection
// queries against the naive oracle, across workload shapes, plus the
// no-double-reporting guarantee and I/O bounds; then the fully dynamic
// DynamicIntervalIndex (§5) under churn, and the delete identity rule
// both families share.

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "ccidx/core/metablock_tree.h"  // PageSizeForBranching
#include "ccidx/interval/dynamic_interval_index.h"
#include "ccidx/interval/interval_index.h"
#include "ccidx/testutil/generators.h"
#include "ccidx/testutil/oracles.h"

namespace ccidx {
namespace {

constexpr uint32_t kB = 8;

class IntervalIndexTest : public ::testing::Test {
 protected:
  IntervalIndexTest() : dev_(PageSizeForBranching(kB)), pager_(&dev_, 0) {}

  BlockDevice dev_;
  Pager pager_;
};

TEST_F(IntervalIndexTest, EmptyIndex) {
  IntervalIndex idx(&pager_);
  std::vector<Interval> out;
  VectorSink<Interval> sink(&out);
  ASSERT_TRUE(idx.Stab(5, &sink).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(idx.Intersect(0, 10, &sink).ok());
  EXPECT_TRUE(out.empty());
}

TEST_F(IntervalIndexTest, RejectsInvertedInterval) {
  IntervalIndex idx(&pager_);
  EXPECT_FALSE(idx.Insert({10, 5, 0}).ok());
}

TEST_F(IntervalIndexTest, BasicStabbing) {
  IntervalIndex idx(&pager_);
  ASSERT_TRUE(idx.Insert({1, 10, 0}).ok());
  ASSERT_TRUE(idx.Insert({5, 7, 1}).ok());
  ASSERT_TRUE(idx.Insert({8, 12, 2}).ok());
  std::vector<Interval> out;
  VectorSink<Interval> sink(&out);
  ASSERT_TRUE(idx.Stab(6, &sink).ok());
  SortIntervals(&out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 0u);
  EXPECT_EQ(out[1].id, 1u);
  out.clear();
  ASSERT_TRUE(idx.Stab(11, &sink).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 2u);
}

TEST_F(IntervalIndexTest, StabbingBoundariesInclusive) {
  IntervalIndex idx(&pager_);
  ASSERT_TRUE(idx.Insert({3, 8, 0}).ok());
  std::vector<Interval> out;
  VectorSink<Interval> sink(&out);
  ASSERT_TRUE(idx.Stab(3, &sink).ok());
  EXPECT_EQ(out.size(), 1u);  // left endpoint
  out.clear();
  ASSERT_TRUE(idx.Stab(8, &sink).ok());
  EXPECT_EQ(out.size(), 1u);  // right endpoint
  out.clear();
  ASSERT_TRUE(idx.Stab(2, &sink).ok());
  EXPECT_TRUE(out.empty());
  out.clear();
  ASSERT_TRUE(idx.Stab(9, &sink).ok());
  EXPECT_TRUE(out.empty());
}

TEST_F(IntervalIndexTest, PointIntervals) {
  IntervalIndex idx(&pager_);
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        idx.Insert({static_cast<Coord>(i), static_cast<Coord>(i), i}).ok());
  }
  std::vector<Interval> out;
  VectorSink<Interval> sink(&out);
  ASSERT_TRUE(idx.Stab(57, &sink).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 57u);
  out.clear();
  ASSERT_TRUE(idx.Intersect(10, 20, &sink).ok());
  EXPECT_EQ(out.size(), 11u);
}

TEST_F(IntervalIndexTest, NoDoubleReporting) {
  // Intervals whose first endpoint equals the query's left boundary are the
  // overlap case between the stabbing part and the endpoint part.
  IntervalIndex idx(&pager_);
  ASSERT_TRUE(idx.Insert({5, 9, 0}).ok());   // lo == qlo
  ASSERT_TRUE(idx.Insert({2, 5, 1}).ok());   // hi == qlo
  ASSERT_TRUE(idx.Insert({6, 8, 2}).ok());   // inside
  ASSERT_TRUE(idx.Insert({9, 12, 3}).ok());  // lo == qhi
  std::vector<Interval> out;
  VectorSink<Interval> sink(&out);
  ASSERT_TRUE(idx.Intersect(5, 9, &sink).ok());
  SortIntervals(&out);
  ASSERT_EQ(out.size(), 4u);
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_NE(out[i - 1].id, out[i].id);
  }
}

class IntervalWorkloadTest
    : public ::testing::TestWithParam<IntervalWorkload> {};

TEST_P(IntervalWorkloadTest, MatchesOracleAcrossWorkloads) {
  BlockDevice dev(PageSizeForBranching(kB));
  Pager pager(&dev, 0);
  auto intervals = RandomIntervals(3000, 10000, GetParam(), 42);
  IntervalOracle oracle;
  auto idx = IntervalIndex::Build(&pager, intervals);
  ASSERT_TRUE(idx.ok());
  for (const Interval& iv : intervals) oracle.Insert(iv);
  std::mt19937 rng(7);
  for (int i = 0; i < 60; ++i) {
    Coord q = static_cast<Coord>(rng() % 10000);
    std::vector<Interval> got;
    VectorSink<Interval> sink(&got);
    ASSERT_TRUE(idx->Stab(q, &sink).ok());
    SortIntervals(&got);
    ASSERT_EQ(got, oracle.Stab(q)) << "stab " << q;

    Coord a = static_cast<Coord>(rng() % 10000);
    Coord b = std::min<Coord>(9999, a + static_cast<Coord>(rng() % 2000));
    got.clear();
    ASSERT_TRUE(idx->Intersect(a, b, &sink).ok());
    SortIntervals(&got);
    ASSERT_EQ(got, oracle.Intersect(a, b)) << "intersect " << a << "," << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, IntervalWorkloadTest,
                         ::testing::Values(IntervalWorkload::kUniform,
                                           IntervalWorkload::kNested,
                                           IntervalWorkload::kClustered,
                                           IntervalWorkload::kUnit));

TEST_F(IntervalIndexTest, DynamicInsertsMatchOracle) {
  IntervalIndex idx(&pager_);
  IntervalOracle oracle;
  auto intervals =
      RandomIntervals(2500, 5000, IntervalWorkload::kUniform, 11);
  std::mt19937 rng(13);
  for (size_t i = 0; i < intervals.size(); ++i) {
    ASSERT_TRUE(idx.Insert(intervals[i]).ok());
    oracle.Insert(intervals[i]);
    if (i % 83 == 0) {
      Coord q = static_cast<Coord>(rng() % 5000);
      std::vector<Interval> got;
      VectorSink<Interval> sink(&got);
      ASSERT_TRUE(idx.Stab(q, &sink).ok());
      SortIntervals(&got);
      ASSERT_EQ(got, oracle.Stab(q)) << "stab " << q << " after " << i;
    }
  }
  EXPECT_EQ(idx.size(), intervals.size());
}

TEST_F(IntervalIndexTest, StabbingIoWithinBound) {
  const size_t n = 3000;
  auto intervals = RandomIntervals(n, 50000, IntervalWorkload::kUniform, 17);
  IntervalOracle oracle;
  for (const Interval& iv : intervals) oracle.Insert(iv);
  auto idx = IntervalIndex::Build(&pager_, intervals);
  ASSERT_TRUE(idx.ok());
  double logb = std::log(static_cast<double>(n)) / std::log(kB);
  for (Coord q = 0; q <= 50000; q += 1499) {
    dev_.ResetStats();
    std::vector<Interval> got;
    VectorSink<Interval> sink(&got);
    ASSERT_TRUE(idx->Stab(q, &sink).ok());
    size_t t = oracle.Stab(q).size();
    ASSERT_EQ(got.size(), t);
    double budget = 12 * logb + 8.0 * (static_cast<double>(t) / kB) + 30;
    EXPECT_LE(dev_.stats().device_reads, budget) << "q=" << q << " t=" << t;
  }
}

TEST_F(IntervalIndexTest, SpaceIsLinear) {
  const size_t n = 4000;
  auto intervals = RandomIntervals(n, 50000, IntervalWorkload::kUniform, 19);
  auto idx = IntervalIndex::Build(&pager_, intervals);
  ASSERT_TRUE(idx.ok());
  double pages_per_point_page =
      static_cast<double>(dev_.live_pages()) / (static_cast<double>(n) / kB);
  EXPECT_LE(pages_per_point_page, 14.0);
}

TEST_F(IntervalIndexTest, DestroyReleasesEverything) {
  auto intervals =
      RandomIntervals(1000, 5000, IntervalWorkload::kUniform, 23);
  auto idx = IntervalIndex::Build(&pager_, intervals);
  ASSERT_TRUE(idx.ok());
  EXPECT_GT(dev_.live_pages(), 0u);
  ASSERT_TRUE(idx->Destroy().ok());
  EXPECT_EQ(dev_.live_pages(), 0u);
}

class DynamicIntervalTest : public IntervalIndexTest {};

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

// Both families identify a stored interval by (lo, hi, id). A delete that
// names a stored (lo, id) with another hi, or an inverted interval, is
// "not stored": it returns OK with found = false and leaves both
// components — the stabbing tree and the endpoint tree — untouched.
template <typename Index>
class IntervalFamilyTest : public IntervalIndexTest {};

using IntervalFamilies = ::testing::Types<IntervalIndex, DynamicIntervalIndex>;
TYPED_TEST_SUITE(IntervalFamilyTest, IntervalFamilies);

TYPED_TEST(IntervalFamilyTest, DeleteOfUnstoredIntervalChangesNothing) {
  TypeParam idx(&this->pager_);
  ASSERT_TRUE(idx.Insert({10, 20, 1}).ok());
  for (const Interval& miss : {Interval{10, 25, 1}, Interval{10, 15, 1},
                               Interval{20, 10, 1}, Interval{10, 20, 2}}) {
    bool found = true;
    Status s = idx.Delete(miss, &found);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_FALSE(found) << "[" << miss.lo << "," << miss.hi << "] id "
                        << miss.id;
  }
  EXPECT_EQ(idx.size(), 1u);
  const std::vector<Interval> want = {{10, 20, 1}};
  std::vector<Interval> stab, cross;
  VectorSink<Interval> stab_sink(&stab);
  ASSERT_TRUE(idx.Stab(15, &stab_sink).ok());
  EXPECT_EQ(stab, want);  // answered by the stabbing tree
  VectorSink<Interval> cross_sink(&cross);
  ASSERT_TRUE(idx.Intersect(5, 12, &cross_sink).ok());
  EXPECT_EQ(cross, want);  // answered by the endpoint tree
  bool found = false;
  ASSERT_TRUE(idx.Delete({10, 20, 1}, &found).ok());
  EXPECT_TRUE(found);
  EXPECT_EQ(idx.size(), 0u);
  ASSERT_TRUE(idx.Destroy().ok());
  EXPECT_EQ(this->dev_.live_pages(), 0u);
}

}  // namespace
}  // namespace ccidx
