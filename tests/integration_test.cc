// Cross-module integration tests:
//   * structures running through a small LRU buffer pool return identical
//     results to uncached runs, with no more device I/O;
//   * ablated metablock trees (no corner structures / no TS) stay correct
//     and exhibit the predicted extra I/O;
//   * the full constraint pipeline (tuples -> projections -> interval
//     index -> restricted relations) against brute force;
//   * all four class indexes agree query-for-query on one workload.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "ccidx/classes/baselines.h"
#include "ccidx/classes/rake_contract.h"
#include "ccidx/classes/simple_class_index.h"
#include "ccidx/constraint/generalized_index.h"
#include "ccidx/core/augmented_metablock_tree.h"
#include "ccidx/core/metablock_tree.h"
#include "ccidx/testutil/generators.h"
#include "ccidx/testutil/oracles.h"

namespace ccidx {
namespace {

constexpr uint32_t kB = 8;

TEST(PagerIntegrationTest, CachedMetablockQueriesMatchUncached) {
  auto points = RandomPointsAboveDiagonal(15 * kB * kB, 3000, 1);
  PointOracle oracle(points);

  BlockDevice dev(PageSizeForBranching(kB));
  Pager cached(&dev, /*capacity_pages=*/64);
  auto tree = MetablockTree::Build(&cached, points);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(cached.Flush().ok());

  for (Coord a = 0; a <= 3000; a += 101) {
    std::vector<Point> got;
    VectorSink<Point> sink(&got);
    ASSERT_TRUE(tree->Query({a}, &sink).ok());
    SortPoints(&got);
    ASSERT_EQ(got, oracle.Diagonal({a})) << "a=" << a;
  }
}

TEST(PagerIntegrationTest, WarmCacheReducesDeviceReads) {
  auto points = RandomPointsAboveDiagonal(20 * kB * kB, 3000, 2);
  BlockDevice dev(PageSizeForBranching(kB));
  Pager pager(&dev, /*capacity_pages=*/4096);  // everything fits
  auto tree = MetablockTree::Build(&pager, points);
  ASSERT_TRUE(tree.ok());
  std::vector<Point> out;
  VectorSink<Point> sink(&out);
  ASSERT_TRUE(tree->Query({1500}, &sink).ok());  // warm the pool
  dev.ResetStats();
  out.clear();
  ASSERT_TRUE(tree->Query({1500}, &sink).ok());  // fully cached now
  EXPECT_EQ(dev.stats().device_reads, 0u);
}

TEST(PagerIntegrationTest, TinyCacheStillCorrect) {
  auto points = RandomPointsAboveDiagonal(10 * kB * kB, 2000, 3);
  PointOracle oracle(points);
  BlockDevice dev(PageSizeForBranching(kB));
  Pager pager(&dev, /*capacity_pages=*/2);  // pathological thrashing
  AugmentedMetablockTree tree(&pager);
  for (const Point& p : points) ASSERT_TRUE(tree.Insert(p).ok());
  for (Coord a = 0; a <= 2000; a += 173) {
    std::vector<Point> got;
    VectorSink<Point> sink(&got);
    ASSERT_TRUE(tree.Query({a}, &sink).ok());
    SortPoints(&got);
    ASSERT_EQ(got, oracle.Diagonal({a})) << "a=" << a;
  }
}

TEST(AblationTest, AblatedTreesStayCorrect) {
  auto points = RandomPointsAboveDiagonal(20 * kB * kB, 4000, 4);
  PointOracle oracle(points);
  MetablockOptions no_corner;
  no_corner.use_corner_structures = false;
  MetablockOptions no_ts;
  no_ts.use_ts_structures = false;

  BlockDevice d1(PageSizeForBranching(kB)), d2(PageSizeForBranching(kB));
  Pager p1(&d1, 0), p2(&d2, 0);
  auto t_nc = MetablockTree::Build(&p1, points, no_corner);
  ASSERT_TRUE(t_nc.ok());
  ASSERT_TRUE(t_nc->CheckInvariants().ok());
  auto t_nt = MetablockTree::Build(&p2, points, no_ts);
  ASSERT_TRUE(t_nt.ok());
  ASSERT_TRUE(t_nt->CheckInvariants().ok());

  for (Coord a = 0; a <= 4000; a += 97) {
    std::vector<Point> g1, g2;
    VectorSink<Point> g1_sink(&g1);
    ASSERT_TRUE(t_nc->Query({a}, &g1_sink).ok());
    VectorSink<Point> g2_sink(&g2);
    ASSERT_TRUE(t_nt->Query({a}, &g2_sink).ok());
    SortPoints(&g1);
    SortPoints(&g2);
    auto want = oracle.Diagonal({a});
    ASSERT_EQ(g1, want) << "no-corner a=" << a;
    ASSERT_EQ(g2, want) << "no-ts a=" << a;
  }
}

TEST(AblationTest, CornerStructureAvoidsVerticalSweep) {
  // Adversarial Lemma 3.1 workload: one metablock of B^2 points hugging
  // the diagonal, (2i, 2i+1). A corner at an even anchor 2i is Type II
  // with t = 1; without the corner structure the query must sweep every
  // vertical block left of the anchor (~i/B pages).
  const uint32_t b = 16;
  std::vector<Point> points;
  for (uint64_t i = 0; i < static_cast<uint64_t>(b) * b; ++i) {
    points.push_back({static_cast<Coord>(2 * i),
                      static_cast<Coord>(2 * i + 1), i});
  }
  MetablockOptions no_corner;
  no_corner.use_corner_structures = false;
  BlockDevice d0(PageSizeForBranching(b)), d1(PageSizeForBranching(b));
  Pager p0(&d0, 0), p1(&d1, 0);
  auto full = MetablockTree::Build(&p0, points);
  auto nc = MetablockTree::Build(&p1, points, no_corner);
  ASSERT_TRUE(full.ok() && nc.ok());

  uint64_t io_full = 0, io_nc = 0;
  // Anchors deep in the x-range: many vertical blocks to the left.
  for (uint64_t i = b * b / 2; i < static_cast<uint64_t>(b) * b; i += 7) {
    Coord a = static_cast<Coord>(2 * i);
    d0.ResetStats();
    d1.ResetStats();
    std::vector<Point> o0, o1;
    VectorSink<Point> o0_sink(&o0);
    ASSERT_TRUE(full->Query({a}, &o0_sink).ok());
    VectorSink<Point> o1_sink(&o1);
    ASSERT_TRUE(nc->Query({a}, &o1_sink).ok());
    ASSERT_EQ(o0.size(), 1u);
    ASSERT_EQ(o1.size(), 1u);
    io_full += d0.stats().device_reads;
    io_nc += d1.stats().device_reads;
  }
  // The fallback sweeps ~i/B >= B/2 = 8 pages per query; the corner
  // structure answers in O(1). Require at least a 1.5x gap overall.
  EXPECT_GT(io_nc, io_full + io_full / 2)
      << "full=" << io_full << " ablated=" << io_nc;
}

TEST(AblationTest, TsStructureAvoidsPerSiblingVisits) {
  // Adversarial Fig. 17 workload: a root of B^2 "cap" points over B leaf
  // children, each child holding exactly one qualifying point just below
  // the cap plus low filler. At the anchor, every left sibling has
  // ymax >= a but contributes ~1 point: TS crosses within a page or two,
  // while the ablated tree pays control + data reads per sibling.
  const uint32_t b = 16;
  const Coord kQualY = 1 << 20;
  const Coord kCapY = 1 << 24;
  std::vector<Point> points;
  uint64_t id = 0;
  const uint64_t per_leaf = static_cast<uint64_t>(b) * b;
  for (uint64_t leaf = 0; leaf < b; ++leaf) {
    for (uint64_t j = 0; j < per_leaf; ++j) {
      Coord x = static_cast<Coord>(leaf * per_leaf + j);
      Coord y = (j == 0) ? kQualY : x + 1;  // one qualifier per leaf region
      points.push_back({x, y, id++});
    }
  }
  for (uint64_t j = 0; j < per_leaf; ++j) {  // the root's cap points
    points.push_back({static_cast<Coord>(j), kCapY + static_cast<Coord>(j),
                      id++});
  }
  MetablockOptions no_ts;
  no_ts.use_ts_structures = false;
  BlockDevice d0(PageSizeForBranching(b)), d1(PageSizeForBranching(b));
  Pager p0(&d0, 0), p1(&d1, 0);
  auto full = MetablockTree::Build(&p0, points);
  auto nt = MetablockTree::Build(&p1, points, no_ts);
  ASSERT_TRUE(full.ok() && nt.ok());

  d0.ResetStats();
  d1.ResetStats();
  std::vector<Point> o0, o1;
  VectorSink<Point> o0_sink(&o0);
  ASSERT_TRUE(full->Query({kQualY}, &o0_sink).ok());
  VectorSink<Point> o1_sink(&o1);
  ASSERT_TRUE(nt->Query({kQualY}, &o1_sink).ok());
  ASSERT_EQ(o0.size(), o1.size());
  SortPoints(&o0);
  SortPoints(&o1);
  ASSERT_EQ(o0, o1);
  EXPECT_GT(d1.stats().device_reads, d0.stats().device_reads)
      << "full=" << d0.stats().device_reads
      << " ablated=" << d1.stats().device_reads;
}

TEST(ConstraintPipelineTest, EndToEndAgainstBruteForce) {
  // Tuples are boxes over (x0, x1); queries restrict x0 and then x1; the
  // surviving denotations must match brute-force point membership.
  BlockDevice dev(PageSizeForBranching(kB));
  Pager pager(&dev, 0);
  GeneralizedIndex index(&pager, 2, 0);
  std::mt19937 rng(6);
  struct Box {
    Coord x0lo, x0hi, x1lo, x1hi;
  };
  std::vector<Box> boxes;
  for (uint64_t i = 0; i < 400; ++i) {
    Box b;
    b.x0lo = static_cast<Coord>(rng() % 500);
    b.x0hi = b.x0lo + static_cast<Coord>(rng() % 60);
    b.x1lo = static_cast<Coord>(rng() % 500);
    b.x1hi = b.x1lo + static_cast<Coord>(rng() % 60);
    boxes.push_back(b);
    GeneralizedTuple t(i, 2);
    ASSERT_TRUE(t.AddRange(0, b.x0lo, b.x0hi).ok());
    ASSERT_TRUE(t.AddRange(1, b.x1lo, b.x1hi).ok());
    ASSERT_TRUE(index.Insert(t).ok());
  }
  for (int q = 0; q < 30; ++q) {
    Coord a1 = static_cast<Coord>(rng() % 560);
    Coord a2 = a1 + static_cast<Coord>(rng() % 80);
    auto rel = index.RangeQuery(a1, a2);
    ASSERT_TRUE(rel.ok());
    // Sample concrete points and compare membership with brute force.
    for (int s = 0; s < 50; ++s) {
      Coord v0 = static_cast<Coord>(rng() % 600);
      Coord v1 = static_cast<Coord>(rng() % 600);
      bool want = false;
      if (v0 >= a1 && v0 <= a2) {
        for (const Box& b : boxes) {
          if (v0 >= b.x0lo && v0 <= b.x0hi && v1 >= b.x1lo && v1 <= b.x1hi) {
            want = true;
            break;
          }
        }
      }
      Coord val[] = {v0, v1};
      ASSERT_EQ(rel->Contains(val), want)
          << "v=(" << v0 << "," << v1 << ") q=[" << a1 << "," << a2 << "]";
    }
  }
}

TEST(ClassIndexAgreementTest, AllFourSchemesAgree) {
  std::mt19937 rng(7);
  ClassHierarchy h;
  CCIDX_CHECK(h.AddClass("root").ok());
  for (uint32_t i = 1; i < 70; ++i) {
    CCIDX_CHECK(h.AddClass("c" + std::to_string(i), rng() % i).ok());
  }
  ASSERT_TRUE(h.Freeze().ok());
  std::vector<Object> objects;
  for (uint64_t i = 0; i < 4000; ++i) {
    objects.push_back({i, static_cast<uint32_t>(rng() % h.size()),
                       static_cast<Coord>(rng() % 2000)});
  }
  BlockDevice dev(PageSizeForBranching(kB));
  Pager pager(&dev, 0);
  SimpleClassIndex simple(&pager, &h);
  SingleIndexBaseline single(&pager, &h);
  FullExtentIndex full(&pager, &h);
  ExtentOnlyIndex extent(&pager, &h);
  for (const Object& o : objects) {
    ASSERT_TRUE(simple.Insert(o).ok());
    ASSERT_TRUE(single.Insert(o).ok());
    ASSERT_TRUE(full.Insert(o).ok());
    ASSERT_TRUE(extent.Insert(o).ok());
  }
  auto rake = RakeContractIndex::Build(&pager, &h, objects);
  ASSERT_TRUE(rake.ok());
  for (int q = 0; q < 80; ++q) {
    uint32_t c = rng() % h.size();
    Coord a1 = static_cast<Coord>(rng() % 2000);
    Coord a2 = a1 + static_cast<Coord>(rng() % 400);
    std::vector<std::vector<uint64_t>> results(5);
    VectorSink<uint64_t> simple_sink(&results[0]);
    ASSERT_TRUE(simple.Query(c, a1, a2, &simple_sink).ok());
    VectorSink<uint64_t> single_sink(&results[1]);
    ASSERT_TRUE(single.Query(c, a1, a2, &single_sink).ok());
    VectorSink<uint64_t> full_sink(&results[2]);
    ASSERT_TRUE(full.Query(c, a1, a2, &full_sink).ok());
    VectorSink<uint64_t> extent_sink(&results[3]);
    ASSERT_TRUE(extent.Query(c, a1, a2, &extent_sink).ok());
    VectorSink<uint64_t> rake_sink(&results[4]);
    ASSERT_TRUE(rake->Query(c, a1, a2, &rake_sink).ok());
    for (auto& r : results) std::sort(r.begin(), r.end());
    for (int i = 1; i < 5; ++i) {
      ASSERT_EQ(results[0], results[i]) << "scheme " << i << " class " << c;
    }
  }
}

}  // namespace
}  // namespace ccidx
