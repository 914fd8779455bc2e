// Sink-based query execution (DESIGN.md §5): every sink must agree with
// full VectorSink reporting (and the oracles) on randomized workloads for
// every index family, and early-terminating sinks must pin strictly fewer pages
// — ExistsSink / LimitSink(k) on an uncached pager cost O(log_B n + k/B)
// device reads, far below full reporting when t >> k.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "ccidx/classes/baselines.h"
#include "ccidx/classes/rake_contract.h"
#include "ccidx/classes/simple_class_index.h"
#include "ccidx/core/augmented_metablock_tree.h"
#include "ccidx/core/augmented_three_sided_tree.h"
#include "ccidx/core/corner_structure.h"
#include "ccidx/core/metablock_tree.h"
#include "ccidx/core/three_sided_tree.h"
#include "ccidx/interval/dynamic_interval_index.h"
#include "ccidx/interval/interval_index.h"
#include "ccidx/pst/external_pst.h"
#include "ccidx/query/sink.h"
#include "ccidx/tess/tessellation.h"
#include "ccidx/testutil/generators.h"
#include "ccidx/testutil/oracles.h"

namespace ccidx {
namespace {

constexpr uint32_t kB = 16;
constexpr size_t kLimit = 7;

// Runs one query through count / exists / limit sinks via `run` (a callable
// taking a ResultSink<T>*) and checks each against the full result set.
template <typename T, typename RunFn>
void ExpectSinksAgree(const std::vector<T>& full, RunFn run) {
  CountSink<T> count;
  ASSERT_TRUE(run(&count).ok());
  EXPECT_EQ(count.count(), full.size());

  ExistsSink<T> exists;
  ASSERT_TRUE(run(&exists).ok());
  EXPECT_EQ(exists.exists(), !full.empty());

  LimitSink<T> limit(kLimit);
  ASSERT_TRUE(run(&limit).ok());
  EXPECT_EQ(limit.results().size(), std::min(kLimit, full.size()));
  // Emission order is deterministic: the limited results are a prefix of
  // the full emission, hence a sub-multiset of the full answer.
  for (const T& v : limit.results()) {
    EXPECT_NE(std::find(full.begin(), full.end(), v), full.end());
  }

  std::vector<T> via_sink;
  VectorSink<T> vec(&via_sink);
  ASSERT_TRUE(run(&vec).ok());
  EXPECT_EQ(via_sink, full);
}

class SinkQueryTest : public ::testing::Test {
 protected:
  SinkQueryTest() : dev_(PageSizeForBranching(kB)), pager_(&dev_, 0) {}

  BlockDevice dev_;
  Pager pager_;
};

TEST(SinkPrimitivesTest, LimitSinkTruncatesAndLatchesStop) {
  LimitSink<int> sink(3);
  const int batch[] = {1, 2};
  EXPECT_EQ(sink.Emit(batch), SinkState::kContinue);
  const int batch2[] = {3, 4, 5};
  EXPECT_EQ(sink.Emit(batch2), SinkState::kStop);
  EXPECT_EQ(sink.results(), (std::vector<int>{1, 2, 3}));
  // Emit after kStop: no side effects, still kStop.
  EXPECT_EQ(sink.Emit(batch), SinkState::kStop);
  EXPECT_EQ(sink.results().size(), 3u);
}

TEST(SinkPrimitivesTest, EmitterFiltersEmptyBatchesAndLatches) {
  ExistsSink<int> sink;
  SinkEmitter<int> em(&sink);
  EXPECT_FALSE(em.Emit({}));  // empty batches never reach the sink
  EXPECT_FALSE(sink.exists());
  const int batch[] = {42};
  EXPECT_TRUE(em.Emit(batch));
  EXPECT_TRUE(em.stopped());
  EXPECT_TRUE(sink.exists());
}

TEST(SinkPrimitivesTest, TransformSinkMapsFiltersAndRemembersStop) {
  std::vector<int> out;
  VectorSink<int> inner(&out);
  TransformSink<int, int> xform(&inner, [](const int& v) {
    return v % 2 == 0 ? std::optional<int>(v * 10) : std::nullopt;
  });
  const int batch[] = {1, 2, 3, 4};
  EXPECT_EQ(xform.Emit(batch), SinkState::kContinue);
  EXPECT_EQ(out, (std::vector<int>{20, 40}));
  EXPECT_FALSE(xform.stopped());
}

TEST_F(SinkQueryTest, MetablockTreeAgreesWithVectorOverload) {
  auto points = RandomPointsAboveDiagonal(2000, 3000, 7);
  PointOracle oracle(points);
  auto tree = MetablockTree::Build(&pager_, points);
  ASSERT_TRUE(tree.ok());
  for (Coord a = 0; a <= 3000; a += 113) {
    std::vector<Point> full;
    VectorSink<Point> sink(&full);
    ASSERT_TRUE(tree->Query({a}, &sink).ok());
    std::vector<Point> sorted = full;
    SortPoints(&sorted);
    ASSERT_EQ(sorted, oracle.Diagonal({a})) << "a=" << a;
    ExpectSinksAgree(full, [&](ResultSink<Point>* s) {
      return tree->Query({a}, s);
    });
  }
  ASSERT_TRUE(tree->Destroy().ok());
}

TEST_F(SinkQueryTest, MetablockTreeAblatedPathsAgree) {
  // Exercise the no-corner-structure (Type II fallback) and no-TS paths.
  auto points = RandomPointsAboveDiagonal(1500, 2000, 11);
  MetablockOptions opts;
  opts.use_corner_structures = false;
  opts.use_ts_structures = false;
  auto tree = MetablockTree::Build(&pager_, points, opts);
  ASSERT_TRUE(tree.ok());
  for (Coord a = 0; a <= 2000; a += 97) {
    std::vector<Point> full;
    VectorSink<Point> sink(&full);
    ASSERT_TRUE(tree->Query({a}, &sink).ok());
    ExpectSinksAgree(full, [&](ResultSink<Point>* s) {
      return tree->Query({a}, s);
    });
  }
  ASSERT_TRUE(tree->Destroy().ok());
}

TEST_F(SinkQueryTest, AugmentedMetablockTreeAgreesWithVectorOverload) {
  auto points = RandomPointsAboveDiagonal(1200, 2500, 13);
  auto tree = AugmentedMetablockTree::Build(
      &pager_, std::vector<Point>(points.begin(), points.begin() + 600));
  ASSERT_TRUE(tree.ok());
  for (size_t i = 600; i < points.size(); ++i) {
    ASSERT_TRUE(tree->Insert(points[i]).ok());
  }
  ASSERT_TRUE(tree->CheckInvariants().ok());
  for (Coord a = 0; a <= 2500; a += 101) {
    std::vector<Point> full;
    VectorSink<Point> sink(&full);
    ASSERT_TRUE(tree->Query({a}, &sink).ok());
    ExpectSinksAgree(full, [&](ResultSink<Point>* s) {
      return tree->Query({a}, s);
    });
  }
  ASSERT_TRUE(tree->Destroy().ok());
}

TEST_F(SinkQueryTest, ThreeSidedTreeAgreesWithVectorOverload) {
  auto points = RandomPoints(1500, 2000, 17);
  PointOracle oracle(points);
  auto tree = ThreeSidedTree::Build(&pager_, points);
  ASSERT_TRUE(tree.ok());
  for (Coord q = 0; q < 2000; q += 157) {
    ThreeSidedQuery query{q, q + 700, q / 2};
    std::vector<Point> full;
    VectorSink<Point> sink(&full);
    ASSERT_TRUE(tree->Query(query, &sink).ok());
    std::vector<Point> sorted = full;
    SortPoints(&sorted);
    ASSERT_EQ(sorted, oracle.ThreeSided(query));
    ExpectSinksAgree(full, [&](ResultSink<Point>* s) {
      return tree->Query(query, s);
    });
  }
  ASSERT_TRUE(tree->Destroy().ok());
}

TEST_F(SinkQueryTest, AugmentedThreeSidedTreeAgreesWithVectorOverload) {
  auto points = RandomPoints(1200, 2000, 19);
  auto tree = AugmentedThreeSidedTree::Build(
      &pager_, std::vector<Point>(points.begin(), points.begin() + 600));
  ASSERT_TRUE(tree.ok());
  for (size_t i = 600; i < points.size(); ++i) {
    ASSERT_TRUE(tree->Insert(points[i]).ok());
  }
  ASSERT_TRUE(tree->CheckInvariants().ok());
  for (Coord q = 0; q < 2000; q += 157) {
    ThreeSidedQuery query{q, q + 700, q / 2};
    std::vector<Point> full;
    VectorSink<Point> sink(&full);
    ASSERT_TRUE(tree->Query(query, &sink).ok());
    ExpectSinksAgree(full, [&](ResultSink<Point>* s) {
      return tree->Query(query, s);
    });
  }
  ASSERT_TRUE(tree->Destroy().ok());
}

TEST_F(SinkQueryTest, CornerStructureAgreesWithVectorOverload) {
  auto points = RandomPointsAboveDiagonal(600, 800, 23);
  auto corner = CornerStructure::Build(&pager_, points);
  ASSERT_TRUE(corner.ok());
  for (Coord a = 0; a <= 800; a += 53) {
    std::vector<Point> full;
    VectorSink<Point> sink(&full);
    ASSERT_TRUE(corner->Query(a, &sink).ok());
    ExpectSinksAgree(full, [&](ResultSink<Point>* s) {
      return corner->Query(a, s);
    });
  }
  ASSERT_TRUE(corner->Free().ok());
}

TEST_F(SinkQueryTest, ExternalPstAgreesWithVectorOverload) {
  auto points = RandomPoints(1500, 2000, 29);
  auto pst = ExternalPst::Build(&pager_, points);
  ASSERT_TRUE(pst.ok());
  for (Coord q = 0; q < 2000; q += 157) {
    ThreeSidedQuery query{q, q + 600, q / 3};
    std::vector<Point> full;
    VectorSink<Point> sink(&full);
    ASSERT_TRUE(pst->Query(query, &sink).ok());
    ExpectSinksAgree(full, [&](ResultSink<Point>* s) {
      return pst->Query(query, s);
    });
  }
  ASSERT_TRUE(pst->Free().ok());
}

TEST_F(SinkQueryTest, BPlusTreeAgreesWithVectorOverload) {
  BPlusTree tree(&pager_);
  for (int64_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(tree.Insert((i * 37) % 997, i, i).ok());
  }
  for (int64_t lo = 0; lo < 997; lo += 83) {
    int64_t hi = lo + 120;
    std::vector<BtEntry> full;
    VectorSink<BtEntry> sink(&full);
    ASSERT_TRUE(tree.RangeScan(lo, hi, &sink).ok());
    ExpectSinksAgree(full, [&](ResultSink<BtEntry>* s) {
      return tree.RangeScan(lo, hi, s);
    });
  }
  ASSERT_TRUE(tree.Destroy().ok());
}

TEST_F(SinkQueryTest, IntervalIndexAgreesWithVectorOverload) {
  auto intervals =
      RandomIntervals(1500, 4000, IntervalWorkload::kUniform, 37);
  auto index = IntervalIndex::Build(&pager_, intervals);
  ASSERT_TRUE(index.ok());
  for (Coord q = 0; q < 4000; q += 311) {
    std::vector<Interval> full;
    VectorSink<Interval> sink(&full);
    ASSERT_TRUE(index->Stab(q, &sink).ok());
    ExpectSinksAgree(full, [&](ResultSink<Interval>* s) {
      return index->Stab(q, s);
    });
    std::vector<Interval> full_isect;
    VectorSink<Interval> full_isect_sink(&full_isect);
    ASSERT_TRUE(index->Intersect(q, q + 200, &full_isect_sink).ok());
    ExpectSinksAgree(full_isect, [&](ResultSink<Interval>* s) {
      return index->Intersect(q, q + 200, s);
    });
  }
  ASSERT_TRUE(index->Destroy().ok());
}

TEST_F(SinkQueryTest, DynamicIntervalIndexAgreesWithVectorOverload) {
  auto intervals =
      RandomIntervals(1200, 4000, IntervalWorkload::kClustered, 41);
  auto index = DynamicIntervalIndex::Build(&pager_, intervals);
  ASSERT_TRUE(index.ok());
  for (Coord q = 0; q < 4000; q += 311) {
    std::vector<Interval> full;
    VectorSink<Interval> sink(&full);
    ASSERT_TRUE(index->Intersect(q, q + 200, &sink).ok());
    ExpectSinksAgree(full, [&](ResultSink<Interval>* s) {
      return index->Intersect(q, q + 200, s);
    });
  }
  ASSERT_TRUE(index->Destroy().ok());
}

TEST_F(SinkQueryTest, ClassIndexesAgreeWithVectorOverloads) {
  ClassHierarchy h;
  uint32_t person = *h.AddClass("Person");
  uint32_t student = *h.AddClass("Student", person);
  uint32_t prof = *h.AddClass("Professor", person);
  uint32_t phd = *h.AddClass("PhD", student);
  ASSERT_TRUE(h.Freeze().ok());
  std::vector<Object> objects;
  for (uint64_t i = 0; i < 800; ++i) {
    objects.push_back({i, static_cast<uint32_t>(i % 4),
                       static_cast<Coord>((i * 29) % 500)});
  }

  SimpleClassIndex simple(&pager_, &h);
  SingleIndexBaseline single(&pager_, &h);
  FullExtentIndex full_extent(&pager_, &h);
  ExtentOnlyIndex extent_only(&pager_, &h);
  for (const Object& o : objects) {
    ASSERT_TRUE(simple.Insert(o).ok());
    ASSERT_TRUE(single.Insert(o).ok());
    ASSERT_TRUE(full_extent.Insert(o).ok());
    ASSERT_TRUE(extent_only.Insert(o).ok());
  }
  auto rake = RakeContractIndex::Build(&pager_, &h, objects);
  ASSERT_TRUE(rake.ok());

  for (uint32_t c : {person, student, prof, phd}) {
    for (Coord a1 = 0; a1 < 500; a1 += 130) {
      Coord a2 = a1 + 90;
      auto check = [&](auto& index) {
        std::vector<uint64_t> full;
        VectorSink<uint64_t> sink(&full);
        ASSERT_TRUE(index.Query(c, a1, a2, &sink).ok());
        std::vector<uint64_t> sorted = full;
        std::sort(sorted.begin(), sorted.end());
        ASSERT_EQ(sorted, NaiveClassQuery(h, objects, c, a1, a2));
        ExpectSinksAgree(full, [&](ResultSink<uint64_t>* s) {
          return index.Query(c, a1, a2, s);
        });
      };
      check(simple);
      check(single);
      check(full_extent);
      check(extent_only);
      check(*rake);
    }
  }
  // QueryObjects streams full objects through the same path.
  std::vector<Object> objs;
  VectorSink<Object> sink(&objs);
  ASSERT_TRUE(simple.QueryObjects(person, 0, 499, &sink).ok());
  EXPECT_EQ(objs.size(), objects.size());
  CountSink<Object> obj_count;
  ASSERT_TRUE(simple.QueryObjects(person, 0, 499, &obj_count).ok());
  EXPECT_EQ(obj_count.count(), objects.size());
}

TEST(TessellationSinkTest, VisitRangeBlocksDrivesCounts) {
  auto tess = Tessellation::Square(64, 16);
  ASSERT_TRUE(tess.ok());
  RangeQuery2D q{10, 40, 5, 20};
  CountSink<TessBlock> count;
  tess->VisitRangeBlocks(q, &count);
  EXPECT_EQ(count.count(), tess->RangeQueryBlocks(q));
  ExistsSink<TessBlock> exists;
  tess->VisitRangeBlocks(q, &exists);
  EXPECT_TRUE(exists.exists());
  LimitSink<TessBlock> limit(3);
  tess->VisitRangeBlocks(q, &limit);
  EXPECT_EQ(limit.results().size(), 3u);
}

// --- Early-termination I/O accounting (uncached pager: every pin is a
// device read, the cost model of the theorems) -----------------------------

class SinkIoTest : public ::testing::Test {
 protected:
  SinkIoTest() : dev_(PageSizeForBranching(kB)), pager_(&dev_, 0) {}

  uint64_t ReadsFor(const MetablockTree& tree, Coord a,
                    ResultSink<Point>* sink) {
    IoStats before = dev_.stats();
    CCIDX_CHECK(tree.Query({a}, sink).ok());
    return (dev_.stats() - before).device_reads;
  }

  BlockDevice dev_;
  Pager pager_;
};

TEST_F(SinkIoTest, LimitAndExistsSinksReadFewerPagesThanFullReporting) {
  // Every point qualifies at a = n: t = n >= B * k by construction.
  const size_t n = 4096;
  const size_t k = 8;
  ASSERT_GE(n, kB * k);
  std::vector<Point> points;
  for (size_t i = 0; i < n; ++i) {
    points.push_back({static_cast<Coord>(i),
                      static_cast<Coord>(n + i), i});
  }
  auto tree = MetablockTree::Build(&pager_, points);
  ASSERT_TRUE(tree.ok());
  const Coord a = static_cast<Coord>(n);

  std::vector<Point> out;
  VectorSink<Point> full_sink(&out);
  uint64_t full_reads = ReadsFor(*tree, a, &full_sink);
  ASSERT_EQ(out.size(), n);  // t = n

  LimitSink<Point> limit(k);
  uint64_t limit_reads = ReadsFor(*tree, a, &limit);
  ASSERT_EQ(limit.results().size(), k);

  ExistsSink<Point> exists;
  uint64_t exists_reads = ReadsFor(*tree, a, &exists);
  ASSERT_TRUE(exists.exists());

  CountSink<Point> count;
  uint64_t count_reads = ReadsFor(*tree, a, &count);
  ASSERT_EQ(count.count(), n);

  // Full reporting reads at least t/B output pages; early-terminating
  // sinks must be strictly (and asymptotically) cheaper.
  EXPECT_GE(full_reads, n / kB);
  EXPECT_LT(limit_reads, full_reads);
  EXPECT_LT(exists_reads, full_reads);
  EXPECT_LE(exists_reads, limit_reads);
  // O(log_B n + k/B), with generous constants for the corner-path pages.
  double log_b_n = std::log(static_cast<double>(n)) /
                   std::log(static_cast<double>(kB));
  uint64_t bound = static_cast<uint64_t>(
      8 * (log_b_n + 1) + 4 * (static_cast<double>(k) / kB + 1));
  EXPECT_LE(limit_reads, bound)
      << "limit_reads=" << limit_reads << " full_reads=" << full_reads;
  // Counting still reads every output block: same order as full reporting.
  EXPECT_GE(count_reads, n / kB);
  ASSERT_TRUE(tree->Destroy().ok());
}

TEST_F(SinkIoTest, LimitSinkStopsEarlyOnIntervalStabbing) {
  // End-to-end: the composed IntervalIndex inherits early termination.
  std::vector<Interval> intervals;
  for (uint64_t i = 0; i < 3000; ++i) {
    intervals.push_back({static_cast<Coord>(i % 50),
                         static_cast<Coord>(10000 + i), i});
  }
  auto index = IntervalIndex::Build(&pager_, intervals);
  ASSERT_TRUE(index.ok());

  IoStats s0 = dev_.stats();
  std::vector<Interval> full;
  VectorSink<Interval> sink(&full);
  ASSERT_TRUE(index->Stab(5000, &sink).ok());
  uint64_t full_reads = (dev_.stats() - s0).device_reads;
  ASSERT_GT(full.size(), 500u);

  IoStats s1 = dev_.stats();
  LimitSink<Interval> limit(5);
  ASSERT_TRUE(index->Stab(5000, &limit).ok());
  uint64_t limit_reads = (dev_.stats() - s1).device_reads;
  ASSERT_EQ(limit.results().size(), 5u);
  EXPECT_LT(4 * limit_reads, full_reads)
      << "limit_reads=" << limit_reads << " full_reads=" << full_reads;
  ASSERT_TRUE(index->Destroy().ok());
}

}  // namespace
}  // namespace ccidx
