// Tests for class indexing: label-class (Fig. 4/5, Prop. 2.5), the
// Theorem 2.6 range-tree index, the §2.2 baselines, label-edges
// (Lemma 4.5), and the rake-and-contract index (Lemma 4.6, Theorem 4.7).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "ccidx/classes/baselines.h"
#include "ccidx/classes/hierarchy.h"
#include "ccidx/classes/rake_contract.h"
#include "ccidx/classes/simple_class_index.h"
#include "ccidx/core/metablock_tree.h"  // PageSizeForBranching

namespace ccidx {
namespace {

constexpr uint32_t kB = 8;

// Example 2.3: Person <- {Professor <- AsstProf, Student}.
struct PeopleHierarchy {
  ClassHierarchy h;
  uint32_t person, professor, student, asst_prof;

  PeopleHierarchy() {
    person = *h.AddClass("Person");
    // Children in declaration order: Student then Professor, to match the
    // ranges in Example 2.3 ([1/3,2/3) Student, [2/3,1) Professor).
    student = *h.AddClass("Student", person);
    professor = *h.AddClass("Professor", person);
    asst_prof = *h.AddClass("AsstProf", professor);
    CCIDX_CHECK(h.Freeze().ok());
  }
};

TEST(HierarchyTest, LabelClassReproducesExample23) {
  PeopleHierarchy ph;
  // Person: range [0,1), label 0.
  EXPECT_EQ(ph.h.label(ph.person), Rational(0));
  EXPECT_EQ(ph.h.range(ph.person).first, Rational(0));
  EXPECT_EQ(ph.h.range(ph.person).second, Rational(1));
  // Student [1/3, 2/3), Professor [2/3, 1), AsstProf [5/6, 1).
  EXPECT_EQ(ph.h.label(ph.student), Rational(1, 3));
  EXPECT_EQ(ph.h.range(ph.student).second, Rational(2, 3));
  EXPECT_EQ(ph.h.label(ph.professor), Rational(2, 3));
  EXPECT_EQ(ph.h.range(ph.professor).second, Rational(1));
  EXPECT_EQ(ph.h.label(ph.asst_prof), Rational(5, 6));
  EXPECT_EQ(ph.h.range(ph.asst_prof).second, Rational(1));
}

TEST(HierarchyTest, CodesOrderIsomorphicToRationalLabels) {
  std::mt19937 rng(3);
  ClassHierarchy h;
  std::vector<uint32_t> ids = {*h.AddClass("root")};
  for (int i = 1; i < 60; ++i) {
    uint32_t parent = ids[rng() % ids.size()];
    ids.push_back(*h.AddClass("c" + std::to_string(i), parent));
  }
  ASSERT_TRUE(h.Freeze().ok());
  for (uint32_t a : ids) {
    for (uint32_t b : ids) {
      if (a == b) continue;
      // Same order under rational labels and integer codes.
      EXPECT_EQ(h.label(a) < h.label(b), h.code(a) < h.code(b))
          << h.name(a) << " vs " << h.name(b);
      // Subtree membership == rational range containment.
      bool in_range = h.label(b) >= h.range(a).first &&
                      h.label(b) < h.range(a).second;
      EXPECT_EQ(h.IsAncestorOrSelf(a, b), in_range);
    }
  }
}

TEST(HierarchyTest, ForestSplitsUnitInterval) {
  ClassHierarchy h;
  uint32_t r1 = *h.AddClass("r1");
  uint32_t r2 = *h.AddClass("r2");
  uint32_t c1 = *h.AddClass("c1", r1);
  ASSERT_TRUE(h.Freeze().ok());
  EXPECT_EQ(h.range(r1).first, Rational(0));
  EXPECT_EQ(h.range(r1).second, Rational(1, 2));
  EXPECT_EQ(h.range(r2).first, Rational(1, 2));
  EXPECT_TRUE(h.IsAncestorOrSelf(r1, c1));
  EXPECT_FALSE(h.IsAncestorOrSelf(r2, c1));
}

TEST(HierarchyTest, RejectsBadInput) {
  ClassHierarchy h;
  EXPECT_FALSE(h.Freeze().ok());  // empty
  ASSERT_TRUE(h.AddClass("a").ok());
  EXPECT_FALSE(h.AddClass("b", 99).ok());  // unknown parent
  ASSERT_TRUE(h.Freeze().ok());
  EXPECT_FALSE(h.AddClass("c").ok());  // frozen
}

// Builds a random forest with `c` classes across `nroots` roots.
ClassHierarchy RandomHierarchy(uint32_t c, uint32_t nroots, uint32_t seed) {
  std::mt19937 rng(seed);
  ClassHierarchy h;
  for (uint32_t r = 0; r < nroots; ++r) {
    CCIDX_CHECK(h.AddClass("r" + std::to_string(r)).ok());
  }
  for (uint32_t i = nroots; i < c; ++i) {
    uint32_t parent = rng() % i;
    CCIDX_CHECK(h.AddClass("c" + std::to_string(i), parent).ok());
  }
  CCIDX_CHECK(h.Freeze().ok());
  return h;
}

std::vector<Object> RandomObjects(const ClassHierarchy& h, size_t n,
                                  Coord domain, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<Object> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back({i, static_cast<uint32_t>(rng() % h.size()),
                   static_cast<Coord>(rng() % domain)});
  }
  return out;
}

class SimpleClassIndexTest : public ::testing::Test {
 protected:
  SimpleClassIndexTest()
      : dev_(PageSizeForBranching(kB)), pager_(&dev_, 0) {}

  BlockDevice dev_;
  Pager pager_;
};

TEST_F(SimpleClassIndexTest, PeopleExampleQueries) {
  PeopleHierarchy ph;
  SimpleClassIndex idx(&pager_, &ph.h);
  // Example 2.4-style data: ids encode roles.
  ASSERT_TRUE(idx.Insert({1, ph.person, 30}).ok());
  ASSERT_TRUE(idx.Insert({2, ph.student, 10}).ok());
  ASSERT_TRUE(idx.Insert({3, ph.professor, 55}).ok());
  ASSERT_TRUE(idx.Insert({4, ph.asst_prof, 52}).ok());
  std::vector<uint64_t> out;
  // Professors (full extent) earning 50..60: professor + asst prof.
  VectorSink<uint64_t> sink(&out);
  ASSERT_TRUE(idx.Query(ph.professor, 50, 60, &sink).ok());
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<uint64_t>{3, 4}));
  out.clear();
  // All persons earning 0..100: everyone.
  ASSERT_TRUE(idx.Query(ph.person, 0, 100, &sink).ok());
  EXPECT_EQ(out.size(), 4u);
  out.clear();
  // Students earning 50..60: none.
  ASSERT_TRUE(idx.Query(ph.student, 50, 60, &sink).ok());
  EXPECT_TRUE(out.empty());
}

TEST_F(SimpleClassIndexTest, MatchesOracleOnRandomForest) {
  auto h = RandomHierarchy(40, 3, 7);
  auto objects = RandomObjects(h, 3000, 1000, 8);
  SimpleClassIndex idx(&pager_, &h);
  for (const Object& o : objects) ASSERT_TRUE(idx.Insert(o).ok());
  std::mt19937 rng(9);
  for (int q = 0; q < 80; ++q) {
    uint32_t c = rng() % h.size();
    Coord a1 = static_cast<Coord>(rng() % 1000);
    Coord a2 = a1 + static_cast<Coord>(rng() % 200);
    std::vector<uint64_t> got;
    VectorSink<uint64_t> sink(&got);
    ASSERT_TRUE(idx.Query(c, a1, a2, &sink).ok());
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, NaiveClassQuery(h, objects, c, a1, a2))
        << "class " << c << " [" << a1 << "," << a2 << "]";
  }
}

TEST_F(SimpleClassIndexTest, QueryObjectsMaterializesClasses) {
  PeopleHierarchy ph;
  SimpleClassIndex idx(&pager_, &ph.h);
  ASSERT_TRUE(idx.Insert({7, ph.asst_prof, 42}).ok());
  std::vector<Object> out;
  VectorSink<Object> sink(&out);
  ASSERT_TRUE(idx.QueryObjects(ph.person, 0, 100, &sink).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (Object{7, ph.asst_prof, 42}));
}

TEST_F(SimpleClassIndexTest, DeletesAreFullyDynamic) {
  auto h = RandomHierarchy(20, 1, 11);
  auto objects = RandomObjects(h, 800, 500, 12);
  SimpleClassIndex idx(&pager_, &h);
  for (const Object& o : objects) ASSERT_TRUE(idx.Insert(o).ok());
  // Delete half, verify queries against the surviving oracle.
  std::vector<Object> alive;
  for (size_t i = 0; i < objects.size(); ++i) {
    if (i % 2 == 0) {
      bool found = false;
      ASSERT_TRUE(idx.Delete(objects[i], &found).ok());
      EXPECT_TRUE(found);
    } else {
      alive.push_back(objects[i]);
    }
  }
  EXPECT_EQ(idx.size(), alive.size());
  bool found = true;
  ASSERT_TRUE(idx.Delete(objects[0], &found).ok());  // already gone
  EXPECT_FALSE(found);
  std::mt19937 rng(13);
  for (int q = 0; q < 40; ++q) {
    uint32_t c = rng() % h.size();
    std::vector<uint64_t> got;
    VectorSink<uint64_t> sink(&got);
    ASSERT_TRUE(idx.Query(c, 0, 250, &sink).ok());
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, NaiveClassQuery(h, alive, c, 0, 250));
  }
}

TEST_F(SimpleClassIndexTest, CollectionsPerQueryWithinLogBound) {
  auto h = RandomHierarchy(257, 1, 14);
  SimpleClassIndex idx(&pager_, &h);
  ASSERT_TRUE(idx.Insert({0, 5, 10}).ok());
  double log2c = std::log2(static_cast<double>(h.size()));
  for (uint32_t c = 0; c < h.size(); c += 11) {
    std::vector<uint64_t> out;
    VectorSink<uint64_t> sink(&out);
    ASSERT_TRUE(idx.Query(c, 0, 100, &sink).ok());
    EXPECT_LE(idx.last_query_collections(),
              static_cast<size_t>(2 * std::ceil(log2c)) + 1)
        << "class " << c;
  }
}

TEST_F(SimpleClassIndexTest, SpaceIsNLogCOverB) {
  auto h = RandomHierarchy(64, 1, 15);
  auto objects = RandomObjects(h, 4000, 5000, 16);
  SimpleClassIndex idx(&pager_, &h);
  for (const Object& o : objects) ASSERT_TRUE(idx.Insert(o).ok());
  // Each object is stored once per level of the code tree: ceil(log2 64)+1.
  double fanout = (PageSizeForBranching(kB) - 16.0) / sizeof(BtEntry);
  double copies = std::log2(64.0) + 1;
  double bound = 2.5 * objects.size() * copies / fanout + 3 * 64;
  EXPECT_LE(dev_.live_pages(), static_cast<uint64_t>(bound));
}

class BaselinesTest : public ::testing::Test {
 protected:
  BaselinesTest() : dev_(PageSizeForBranching(kB)), pager_(&dev_, 0) {}

  BlockDevice dev_;
  Pager pager_;
};

TEST_F(BaselinesTest, AllBaselinesMatchOracle) {
  auto h = RandomHierarchy(30, 2, 21);
  auto objects = RandomObjects(h, 1500, 800, 22);
  SingleIndexBaseline single(&pager_, &h);
  FullExtentIndex full(&pager_, &h);
  ExtentOnlyIndex extent(&pager_, &h);
  for (const Object& o : objects) {
    ASSERT_TRUE(single.Insert(o).ok());
    ASSERT_TRUE(full.Insert(o).ok());
    ASSERT_TRUE(extent.Insert(o).ok());
  }
  std::mt19937 rng(23);
  for (int q = 0; q < 60; ++q) {
    uint32_t c = rng() % h.size();
    Coord a1 = static_cast<Coord>(rng() % 800);
    Coord a2 = a1 + static_cast<Coord>(rng() % 160);
    auto want = NaiveClassQuery(h, objects, c, a1, a2);
    for (auto* name : {"single", "full", "extent"}) {
      std::vector<uint64_t> got;
      if (name == std::string("single")) {
        VectorSink<uint64_t> sink(&got);
        ASSERT_TRUE(single.Query(c, a1, a2, &sink).ok());
      } else if (name == std::string("full")) {
        VectorSink<uint64_t> sink(&got);
        ASSERT_TRUE(full.Query(c, a1, a2, &sink).ok());
      } else {
        VectorSink<uint64_t> sink(&got);
        ASSERT_TRUE(extent.Query(c, a1, a2, &sink).ok());
      }
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, want) << name << " class " << c;
    }
  }
}

TEST_F(BaselinesTest, DeletesWork) {
  auto h = RandomHierarchy(10, 1, 31);
  auto objects = RandomObjects(h, 300, 100, 32);
  SingleIndexBaseline single(&pager_, &h);
  FullExtentIndex full(&pager_, &h);
  ExtentOnlyIndex extent(&pager_, &h);
  for (const Object& o : objects) {
    ASSERT_TRUE(single.Insert(o).ok());
    ASSERT_TRUE(full.Insert(o).ok());
    ASSERT_TRUE(extent.Insert(o).ok());
  }
  bool found = false;
  ASSERT_TRUE(single.Delete(objects[5], &found).ok());
  EXPECT_TRUE(found);
  ASSERT_TRUE(full.Delete(objects[5], &found).ok());
  EXPECT_TRUE(found);
  ASSERT_TRUE(extent.Delete(objects[5], &found).ok());
  EXPECT_TRUE(found);
  std::vector<Object> alive(objects.begin(), objects.end());
  alive.erase(alive.begin() + 5);
  auto want = NaiveClassQuery(h, alive, 0, 0, 100);
  std::vector<uint64_t> got;
  VectorSink<uint64_t> sink(&got);
  ASSERT_TRUE(full.Query(0, 0, 100, &sink).ok());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want);
}

TEST(LabelEdgesTest, ThinEdgesBoundedByLog2C) {
  for (uint32_t seed : {1u, 2u, 3u, 4u}) {
    auto h = RandomHierarchy(200, 1, seed);
    auto thick = ComputeThickEdges(h);
    double log2c = std::log2(200.0);
    for (uint32_t c = 0; c < h.size(); ++c) {
      EXPECT_LE(ThinEdgesToRoot(h, thick, c), log2c) << "class " << c;
    }
  }
}

TEST(HierarchyTest, DeepHierarchyFallsBackToIntegerLabels) {
  // A 200-deep path would need 2^200 denominators; Freeze must fall back
  // to order-isomorphic integer labels instead of overflowing.
  ClassHierarchy h;
  uint32_t prev = *h.AddClass("c0");
  std::vector<uint32_t> chain = {prev};
  for (int i = 1; i < 200; ++i) {
    prev = *h.AddClass("c" + std::to_string(i), prev);
    chain.push_back(prev);
  }
  ASSERT_TRUE(h.Freeze().ok());
  EXPECT_FALSE(h.exact_labels());
  for (size_t i = 1; i < chain.size(); ++i) {
    EXPECT_LT(h.label(chain[i - 1]), h.label(chain[i]));
    EXPECT_TRUE(h.IsAncestorOrSelf(chain[i - 1], chain[i]));
    auto [lo, hi] = h.range(chain[i - 1]);
    EXPECT_TRUE(h.label(chain[i]) >= lo && h.label(chain[i]) < hi);
  }
}

TEST(HierarchyTest, ShallowHierarchyKeepsExactLabels) {
  PeopleHierarchy ph;
  EXPECT_TRUE(ph.h.exact_labels());
}

TEST(LabelEdgesTest, DegenerateHierarchyHasNoThinEdges) {
  ClassHierarchy h;
  uint32_t prev = *h.AddClass("c0");
  for (int i = 1; i < 20; ++i) {
    prev = *h.AddClass("c" + std::to_string(i), prev);
  }
  ASSERT_TRUE(h.Freeze().ok());
  auto thick = ComputeThickEdges(h);
  EXPECT_EQ(ThinEdgesToRoot(h, thick, prev), 0u);
}

class RakeContractTest : public ::testing::Test {
 protected:
  RakeContractTest() : dev_(PageSizeForBranching(kB)), pager_(&dev_, 0) {}

  BlockDevice dev_;
  Pager pager_;
};

TEST_F(RakeContractTest, PeopleExample) {
  PeopleHierarchy ph;
  std::vector<Object> objects = {{1, ph.person, 30},
                                 {2, ph.student, 10},
                                 {3, ph.professor, 55},
                                 {4, ph.asst_prof, 52}};
  auto idx = RakeContractIndex::Build(&pager_, &ph.h, objects);
  ASSERT_TRUE(idx.ok());
  std::vector<uint64_t> out;
  VectorSink<uint64_t> sink(&out);
  ASSERT_TRUE(idx->Query(ph.professor, 50, 60, &sink).ok());
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<uint64_t>{3, 4}));
}

TEST_F(RakeContractTest, MatchesOracleAcrossShapes) {
  struct Shape {
    uint32_t c, roots, seed;
  };
  for (Shape s : std::vector<Shape>{{50, 1, 41}, {50, 4, 42}, {120, 1, 43}}) {
    BlockDevice dev(PageSizeForBranching(kB));
    Pager pager(&dev, 0);
    auto h = RandomHierarchy(s.c, s.roots, s.seed);
    auto objects = RandomObjects(h, 2500, 700, s.seed + 100);
    auto idx = RakeContractIndex::Build(&pager, &h, objects);
    ASSERT_TRUE(idx.ok());
    std::mt19937 rng(s.seed + 200);
    for (int q = 0; q < 60; ++q) {
      uint32_t c = rng() % h.size();
      Coord a1 = static_cast<Coord>(rng() % 700);
      Coord a2 = a1 + static_cast<Coord>(rng() % 140);
      std::vector<uint64_t> got;
      VectorSink<uint64_t> sink(&got);
      ASSERT_TRUE(idx->Query(c, a1, a2, &sink).ok());
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, NaiveClassQuery(h, objects, c, a1, a2))
          << "class " << c;
    }
  }
}

TEST_F(RakeContractTest, DegenerateHierarchyIsOnePath) {
  ClassHierarchy h;
  uint32_t prev = *h.AddClass("c0");
  std::vector<uint32_t> chain = {prev};
  for (int i = 1; i < 15; ++i) {
    prev = *h.AddClass("c" + std::to_string(i), prev);
    chain.push_back(prev);
  }
  ASSERT_TRUE(h.Freeze().ok());
  auto objects = RandomObjects(h, 1000, 300, 44);
  auto idx = RakeContractIndex::Build(&pager_, &h, objects);
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(idx->num_paths(), 1u);
  EXPECT_EQ(idx->max_replication(), 1u);  // no thin edges: single copy
  for (uint32_t c : chain) {
    std::vector<uint64_t> got;
    VectorSink<uint64_t> sink(&got);
    ASSERT_TRUE(idx->Query(c, 50, 250, &sink).ok());
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, NaiveClassQuery(h, objects, c, 50, 250));
  }
}

TEST_F(RakeContractTest, ReplicationWithinLemma46Bound) {
  auto h = RandomHierarchy(300, 1, 45);
  auto objects = RandomObjects(h, 3000, 1000, 46);
  auto idx = RakeContractIndex::Build(&pager_, &h, objects);
  ASSERT_TRUE(idx.ok());
  EXPECT_LE(idx->max_replication(),
            static_cast<uint32_t>(std::log2(300.0)) + 1);
}

TEST_F(RakeContractTest, QueryIoWithinTheorem47Bound) {
  auto h = RandomHierarchy(64, 1, 47);
  const size_t n = 20000;
  auto objects = RandomObjects(h, n, 50000, 48);
  auto idx = RakeContractIndex::Build(&pager_, &h, objects);
  ASSERT_TRUE(idx.ok());
  double logb_n = std::log(static_cast<double>(n)) / std::log(kB);
  double log2_b = std::log2(static_cast<double>(kB));
  std::mt19937 rng(49);
  for (int q = 0; q < 40; ++q) {
    uint32_t c = rng() % h.size();
    Coord a1 = static_cast<Coord>(rng() % 50000);
    Coord a2 = a1 + static_cast<Coord>(rng() % 20000);
    auto want = NaiveClassQuery(h, objects, c, a1, a2);
    dev_.ResetStats();
    std::vector<uint64_t> got;
    VectorSink<uint64_t> sink(&got);
    ASSERT_TRUE(idx->Query(c, a1, a2, &sink).ok());
    ASSERT_EQ(got.size(), want.size());
    double budget = 10 * logb_n + 12 * log2_b +
                    8.0 * (static_cast<double>(want.size()) / kB) + 30;
    EXPECT_LE(dev_.stats().device_reads, budget)
        << "class " << c << " t=" << want.size();
  }
}

TEST_F(RakeContractTest, DynamicInsertsMatchOracle) {
  // Theorem 4.7 end-to-end: build on half the objects, insert the rest via
  // the Lemma 4.4 path, verify queries against the oracle throughout.
  auto h = RandomHierarchy(60, 2, 51);
  auto objects = RandomObjects(h, 3000, 900, 52);
  std::vector<Object> base(objects.begin(), objects.begin() + 1500);
  auto idx = RakeContractIndex::Build(&pager_, &h, base);
  ASSERT_TRUE(idx.ok());
  std::vector<Object> present = base;
  std::mt19937 rng(53);
  for (size_t i = 1500; i < objects.size(); ++i) {
    ASSERT_TRUE(idx->Insert(objects[i]).ok());
    present.push_back(objects[i]);
    if (i % 97 == 0) {
      uint32_t c = rng() % h.size();
      Coord a1 = static_cast<Coord>(rng() % 900);
      Coord a2 = a1 + static_cast<Coord>(rng() % 300);
      std::vector<uint64_t> got;
      VectorSink<uint64_t> sink(&got);
      ASSERT_TRUE(idx->Query(c, a1, a2, &sink).ok());
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, NaiveClassQuery(h, present, c, a1, a2))
          << "class " << c << " after " << i;
    }
  }
  EXPECT_LE(idx->max_replication(),
            static_cast<uint32_t>(std::log2(60.0)) + 1);
}

TEST_F(RakeContractTest, InsertFromEmptyIndex) {
  PeopleHierarchy ph;
  auto idx = RakeContractIndex::Build(&pager_, &ph.h, std::vector<Object>{});
  ASSERT_TRUE(idx.ok());
  ASSERT_TRUE(idx->Insert({1, ph.asst_prof, 42}).ok());
  ASSERT_TRUE(idx->Insert({2, ph.student, 17}).ok());
  std::vector<uint64_t> out;
  VectorSink<uint64_t> sink(&out);
  ASSERT_TRUE(idx->Query(ph.person, 0, 100, &sink).ok());
  EXPECT_EQ(out.size(), 2u);
  out.clear();
  ASSERT_TRUE(idx->Query(ph.professor, 0, 100, &sink).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 1u);
  EXPECT_FALSE(idx->Insert({3, 999, 5}).ok());  // unknown class
}

}  // namespace
}  // namespace ccidx
