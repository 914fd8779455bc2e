// Seeded randomized differential workload harness (DESIGN.md §8).
//
// Every index family runs long random interleavings of Insert / Delete /
// query against its in-core oracle, at several (B, cache-capacity, ops)
// shapes — including capacity 0 (every access is a device transfer, the
// fault/I/O cost model) and a tiny 8-frame pool (eviction churn under
// update traffic). Any failure prints a `[workload seed=... op=...]`
// annotation; replay exactly with CCIDX_WORKLOAD_SEED=<seed>. The
// nightly stress workflow multiplies trace counts via
// CCIDX_WORKLOAD_ITERS and collects failing seeds from
// CCIDX_WORKLOAD_FAILURE_FILE.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ccidx/bptree/bptree.h"
#include "ccidx/classes/hierarchy.h"
#include "ccidx/classes/rake_contract.h"
#include "ccidx/classes/simple_class_index.h"
#include "ccidx/constraint/generalized_index.h"
#include "ccidx/core/augmented_metablock_tree.h"
#include "ccidx/core/augmented_three_sided_tree.h"
#include "ccidx/core/corner_structure.h"
#include "ccidx/core/metablock_tree.h"
#include "ccidx/dynamic/adapters.h"
#include "ccidx/interval/dynamic_interval_index.h"
#include "ccidx/interval/interval_index.h"
#include "ccidx/io/block_device.h"
#include "ccidx/io/pager.h"
#include "ccidx/pst/external_pst.h"
#include "ccidx/testutil/oracles.h"
#include "ccidx/testutil/workload.h"

namespace ccidx {
namespace {

constexpr Coord kDomain = 4096;

// ---------------------------------------------------------------------------
// Harness scaffolding
// ---------------------------------------------------------------------------

struct Shape {
  uint32_t branching;
  uint32_t cache_pages;
  size_t ops;
  size_t initial;  // records bulk-built before the interleaving starts
  uint64_t seed;
};

// The acceptance trace: 10k interleaved ops, uncached (capacity 0).
const Shape kMainShape{16, 0, 10000, 512, 0xC0FFEE};
// Side shapes: small B, a tiny 8-frame pool, and a mid-size warm pool.
// Tiny-pool traces stay short so external-sort merge fan-in never pins
// more frames than the pool holds (DESIGN.md §3 pin contract).
const Shape kSmallB{8, 0, 2000, 128, 0xBEEF1};
const Shape kTinyPool{16, 8, 1200, 128, 0xBEEF2};
const Shape kWarmPool{16, 96, 2500, 256, 0xBEEF3};

void RecordFailingSeed(uint64_t seed) {
  const char* path = std::getenv("CCIDX_WORKLOAD_FAILURE_FILE");
  if (path == nullptr) return;
  if (std::FILE* f = std::fopen(path, "a")) {
    std::fprintf(f, "%llu\n", static_cast<unsigned long long>(seed));
    std::fclose(f);
  }
}

// Builds a fresh device+pager per trace and drives `make(pager, shape)`
// through RunDifferentialWorkload, once per stress iteration.
template <typename MakeAdapter>
void RunShape(const Shape& shape, MakeAdapter make) {
  const size_t iters = WorkloadIterations();
  for (size_t it = 0; it < iters; ++it) {
    BlockDevice dev(PageSizeForBranching(shape.branching));
    Pager pager(&dev, shape.cache_pages);
    WorkloadOptions opt;
    opt.seed = EffectiveWorkloadSeed(shape.seed + it * 7919);
    opt.ops = shape.ops;
    std::mt19937_64 init_rng(opt.seed ^ 0x5eed);
    auto adapter = make(&pager, shape, init_rng);
    ASSERT_NE(adapter, nullptr);
    Status s = RunDifferentialWorkload(*adapter, opt);
    if (!s.ok()) RecordFailingSeed(opt.seed);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
}

template <typename MakeAdapter>
void RunAllShapes(MakeAdapter make) {
  for (const Shape& shape : {kMainShape, kSmallB, kTinyPool, kWarmPool}) {
    SCOPED_TRACE("B=" + std::to_string(shape.branching) +
                 " cache=" + std::to_string(shape.cache_pages) +
                 " ops=" + std::to_string(shape.ops));
    RunShape(shape, make);
  }
}

// ---------------------------------------------------------------------------
// Record / comparison helpers
// ---------------------------------------------------------------------------

Coord Rand(std::mt19937_64& rng, Coord lo, Coord hi) {
  return std::uniform_int_distribution<Coord>(lo, hi)(rng);
}

Point FreshAboveDiagonal(std::mt19937_64& rng, uint64_t id) {
  Coord a = Rand(rng, 0, kDomain - 1);
  Coord b = Rand(rng, 0, kDomain - 1);
  return {std::min(a, b), std::max(a, b), id};
}

Point FreshAnywhere(std::mt19937_64& rng, uint64_t id) {
  return {Rand(rng, 0, kDomain - 1), Rand(rng, 0, kDomain - 1), id};
}

Status ComparePoints(std::vector<Point> got, std::vector<Point> want,
                     const std::string& what) {
  SortPoints(&got);
  SortPoints(&want);
  if (got != want) {
    return Status::Corruption(what + ": got " + std::to_string(got.size()) +
                              " points, oracle " +
                              std::to_string(want.size()));
  }
  return Status::OK();
}

Status CompareFound(bool got, bool want, const std::string& what) {
  if (got != want) {
    return Status::Corruption(what + ": structure found=" +
                              std::to_string(got) + ", oracle=" +
                              std::to_string(want));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Point-family adapters
// ---------------------------------------------------------------------------

// Shared point-record bookkeeping: oracle, unique ids, victim selection.
struct PointBase {
  PointOracle oracle;
  uint64_t next_id = 0;

  // Three of four delete attempts target a live record; the rest a fresh
  // random one (exercises the found=false path).
  Point Victim(std::mt19937_64& rng, bool above_diagonal) {
    if (!oracle.points().empty() && rng() % 4 != 0) {
      return oracle.points()[rng() % oracle.points().size()];
    }
    return above_diagonal ? FreshAboveDiagonal(rng, next_id + (1u << 30))
                          : FreshAnywhere(rng, next_id + (1u << 30));
  }
};

// Families answering diagonal corner queries with a uniform
// Insert/Delete/Query(DiagonalQuery)/CheckInvariants/size surface:
// DynamicMetablockTree (log-method adapter) and AugmentedMetablockTree.
template <typename St>
struct DiagonalAdapter : PointBase {
  std::optional<St> st;

  Status Insert(std::mt19937_64& rng) {
    Point p = FreshAboveDiagonal(rng, next_id++);
    CCIDX_RETURN_IF_ERROR(st->Insert(p));
    oracle.Insert(p);
    return Status::OK();
  }

  Status Delete(std::mt19937_64& rng) {
    Point p = Victim(rng, /*above_diagonal=*/true);
    bool found = false;
    CCIDX_RETURN_IF_ERROR(st->Delete(p, &found));
    return CompareFound(found, oracle.Erase(p), "diagonal delete");
  }

  Status Query(std::mt19937_64& rng) {
    DiagonalQuery q{Rand(rng, -kDomain / 8, kDomain + kDomain / 8)};
    std::vector<Point> got;
    VectorSink<Point> sink(&got);
    CCIDX_RETURN_IF_ERROR(st->Query(q, &sink));
    return ComparePoints(std::move(got), oracle.Diagonal(q),
                         "diagonal query a=" + std::to_string(q.a));
  }

  Status Check() {
    CCIDX_RETURN_IF_ERROR(st->CheckInvariants());
    if (st->size() != oracle.size()) {
      return Status::Corruption("size mismatch: structure " +
                                std::to_string(st->size()) + ", oracle " +
                                std::to_string(oracle.size()));
    }
    for (Coord a : {Coord{0}, kDomain / 4, kDomain / 2, kDomain}) {
      std::vector<Point> got;
      VectorSink<Point> sink(&got);
      CCIDX_RETURN_IF_ERROR(st->Query(DiagonalQuery{a}, &sink));
      CCIDX_RETURN_IF_ERROR(ComparePoints(
          std::move(got), oracle.Diagonal({a}), "check anchor"));
    }
    return Status::OK();
  }
};

// Families answering 3-sided queries with the uniform surface:
// DynamicThreeSidedTree, AugmentedThreeSidedTree, ExternalPst.
template <typename St>
struct ThreeSidedAdapter : PointBase {
  std::optional<St> st;

  Status Insert(std::mt19937_64& rng) {
    Point p = FreshAnywhere(rng, next_id++);
    CCIDX_RETURN_IF_ERROR(st->Insert(p));
    oracle.Insert(p);
    return Status::OK();
  }

  Status Delete(std::mt19937_64& rng) {
    Point p = Victim(rng, /*above_diagonal=*/false);
    bool found = false;
    CCIDX_RETURN_IF_ERROR(st->Delete(p, &found));
    return CompareFound(found, oracle.Erase(p), "3-sided delete");
  }

  Status Query(std::mt19937_64& rng) {
    Coord x1 = Rand(rng, 0, kDomain - 1);
    Coord x2 = Rand(rng, 0, kDomain - 1);
    ThreeSidedQuery q{std::min(x1, x2), std::max(x1, x2),
                      Rand(rng, 0, kDomain - 1)};
    std::vector<Point> got;
    VectorSink<Point> sink(&got);
    CCIDX_RETURN_IF_ERROR(st->Query(q, &sink));
    return ComparePoints(std::move(got), oracle.ThreeSided(q),
                         "3-sided query");
  }

  Status Check() {
    CCIDX_RETURN_IF_ERROR(st->CheckInvariants());
    if (st->size() != oracle.size()) {
      return Status::Corruption("size mismatch: structure " +
                                std::to_string(st->size()) + ", oracle " +
                                std::to_string(oracle.size()));
    }
    ThreeSidedQuery all{kCoordMin, kCoordMax, kCoordMin};
    std::vector<Point> got;
    VectorSink<Point> sink(&got);
    CCIDX_RETURN_IF_ERROR(st->Query(all, &sink));
    return ComparePoints(std::move(got), oracle.ThreeSided(all),
                         "full extent");
  }
};

// CornerStructure: bounded-size component (k <= O(B^2)); inserts are
// capped so the workload respects the lemma's envelope.
struct CornerAdapter : PointBase {
  std::optional<CornerStructure> st;
  size_t max_points;

  Status Insert(std::mt19937_64& rng) {
    if (oracle.size() >= max_points) return Query(rng);  // stay bounded
    Point p = FreshAboveDiagonal(rng, next_id++);
    CCIDX_RETURN_IF_ERROR(st->Insert(p));
    oracle.Insert(p);
    return Status::OK();
  }

  Status Delete(std::mt19937_64& rng) {
    Point p = Victim(rng, /*above_diagonal=*/true);
    bool found = false;
    CCIDX_RETURN_IF_ERROR(st->Delete(p, &found));
    return CompareFound(found, oracle.Erase(p), "corner delete");
  }

  Status Query(std::mt19937_64& rng) {
    Coord a = Rand(rng, -kDomain / 8, kDomain + kDomain / 8);
    std::vector<Point> got;
    VectorSink<Point> sink(&got);
    CCIDX_RETURN_IF_ERROR(st->Query(a, &sink));
    return ComparePoints(std::move(got), oracle.Diagonal({a}),
                         "corner query a=" + std::to_string(a));
  }

  Status Check() {
    if (st->size() != oracle.size()) {
      return Status::Corruption("corner size mismatch");
    }
    for (Coord a : {Coord{0}, kDomain / 4, kDomain / 2, kDomain}) {
      std::vector<Point> got;
      VectorSink<Point> sink(&got);
      CCIDX_RETURN_IF_ERROR(st->Query(a, &sink));
      CCIDX_RETURN_IF_ERROR(ComparePoints(
          std::move(got), oracle.Diagonal({a}), "corner check anchor"));
    }
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// B+-tree adapter (1-d range)
// ---------------------------------------------------------------------------

struct BtLess {
  bool operator()(const BtEntry& a, const BtEntry& b) const {
    if (a.key != b.key) return a.key < b.key;
    if (a.value != b.value) return a.value < b.value;
    return a.aux < b.aux;
  }
};

struct BtAdapter {
  std::optional<BPlusTree> st;
  std::vector<BtEntry> oracle;
  uint64_t next_id = 0;

  Status Insert(std::mt19937_64& rng) {
    BtEntry e{Rand(rng, 0, kDomain - 1), next_id++, Rand(rng, 0, kDomain - 1)};
    CCIDX_RETURN_IF_ERROR(st->Insert(e.key, e.value, e.aux));
    oracle.push_back(e);
    return Status::OK();
  }

  Status Delete(std::mt19937_64& rng) {
    BtEntry e;
    if (!oracle.empty() && rng() % 4 != 0) {
      e = oracle[rng() % oracle.size()];
    } else {
      e = {Rand(rng, 0, kDomain - 1), next_id + (1u << 30), 0};
    }
    bool found = false;
    CCIDX_RETURN_IF_ERROR(st->Delete(e.key, e.value, &found));
    bool expect = false;
    for (auto it = oracle.begin(); it != oracle.end(); ++it) {
      if (it->key == e.key && it->value == e.value) {
        oracle.erase(it);
        expect = true;
        break;
      }
    }
    return CompareFound(found, expect, "btree delete");
  }

  Status Query(std::mt19937_64& rng) {
    Coord a = Rand(rng, 0, kDomain - 1);
    Coord b = Rand(rng, 0, kDomain - 1);
    return Compare(std::min(a, b), std::max(a, b));
  }

  Status Compare(int64_t lo, int64_t hi) {
    std::vector<BtEntry> got;
    VectorSink<BtEntry> sink(&got);
    CCIDX_RETURN_IF_ERROR(st->RangeScan(lo, hi, &sink));
    std::vector<BtEntry> want;
    for (const BtEntry& e : oracle) {
      if (e.key >= lo && e.key <= hi) want.push_back(e);
    }
    std::sort(got.begin(), got.end(), BtLess());
    std::sort(want.begin(), want.end(), BtLess());
    if (got != want) {
      return Status::Corruption("btree range mismatch: got " +
                                std::to_string(got.size()) + ", oracle " +
                                std::to_string(want.size()));
    }
    return Status::OK();
  }

  Status Check() {
    CCIDX_RETURN_IF_ERROR(st->CheckInvariants());
    if (st->size() != oracle.size()) {
      return Status::Corruption("btree size mismatch");
    }
    return Compare(kCoordMin, kCoordMax);
  }
};

// ---------------------------------------------------------------------------
// Interval-index adapters
// ---------------------------------------------------------------------------

template <typename St>
struct IntervalAdapter {
  std::optional<St> st;
  IntervalOracle oracle;
  std::vector<Interval> live;  // mirror for victim selection
  uint64_t next_id = 0;

  Interval Fresh(std::mt19937_64& rng) {
    Coord a = Rand(rng, 0, kDomain - 1);
    Coord b = Rand(rng, 0, kDomain - 1);
    return {std::min(a, b), std::max(a, b), next_id++};
  }

  Status Insert(std::mt19937_64& rng) {
    Interval iv = Fresh(rng);
    CCIDX_RETURN_IF_ERROR(st->Insert(iv));
    oracle.Insert(iv);
    live.push_back(iv);
    return Status::OK();
  }

  Status Delete(std::mt19937_64& rng) {
    Interval iv;
    if (!live.empty() && rng() % 4 != 0) {
      iv = live[rng() % live.size()];
    } else {
      Coord a = Rand(rng, 0, kDomain - 1);
      iv = {a, a + 1, next_id + (1u << 30)};
    }
    bool found = false;
    CCIDX_RETURN_IF_ERROR(st->Delete(iv, &found));
    bool expect = oracle.Erase(iv);
    if (expect) {
      for (auto it = live.begin(); it != live.end(); ++it) {
        if (*it == iv) {
          live.erase(it);
          break;
        }
      }
    }
    return CompareFound(found, expect, "interval delete");
  }

  Status Query(std::mt19937_64& rng) {
    std::vector<Interval> got;
    std::vector<Interval> want;
    std::string what;
    if (rng() % 2 == 0) {
      Coord q = Rand(rng, -kDomain / 8, kDomain + kDomain / 8);
      VectorSink<Interval> sink(&got);
      CCIDX_RETURN_IF_ERROR(st->Stab(q, &sink));
      want = oracle.Stab(q);
      what = "stab q=" + std::to_string(q);
    } else {
      Coord a = Rand(rng, 0, kDomain - 1);
      Coord b = Rand(rng, 0, kDomain - 1);
      Coord lo = std::min(a, b), hi = std::max(a, b);
      VectorSink<Interval> sink(&got);
      CCIDX_RETURN_IF_ERROR(st->Intersect(lo, hi, &sink));
      want = oracle.Intersect(lo, hi);
      what = "intersect";
    }
    SortIntervals(&got);
    if (got != want) {
      return Status::Corruption(what + ": got " + std::to_string(got.size()) +
                                ", oracle " + std::to_string(want.size()));
    }
    return Status::OK();
  }

  Status Check() {
    if (st->size() != oracle.size()) {
      return Status::Corruption("interval size mismatch: structure " +
                                std::to_string(st->size()) + ", oracle " +
                                std::to_string(oracle.size()));
    }
    std::vector<Interval> got;
    VectorSink<Interval> sink(&got);
    CCIDX_RETURN_IF_ERROR(st->Intersect(-1, kDomain + 1, &sink));
    SortIntervals(&got);
    std::vector<Interval> want = oracle.Intersect(-1, kDomain + 1);
    if (got != want) {
      return Status::Corruption("interval full-extent mismatch");
    }
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// Class-index adapters
// ---------------------------------------------------------------------------

// A deterministic 3-level forest: root chains with thin-attached leaves,
// exercising both raked B+-trees and contracted path structures.
std::unique_ptr<ClassHierarchy> MakeHierarchy() {
  auto h = std::make_unique<ClassHierarchy>();
  auto root = h->AddClass("root");
  CCIDX_CHECK(root.ok());
  uint32_t spine = *root;
  for (int i = 0; i < 4; ++i) {
    auto mid = h->AddClass("mid" + std::to_string(i), spine);
    CCIDX_CHECK(mid.ok());
    for (int j = 0; j < 3; ++j) {
      auto leaf = h->AddClass("leaf" + std::to_string(i) + "_" +
                              std::to_string(j), *mid);
      CCIDX_CHECK(leaf.ok());
    }
    spine = *mid;
  }
  CCIDX_CHECK(h->Freeze().ok());
  return h;
}

template <typename St>
struct ClassAdapter {
  std::unique_ptr<ClassHierarchy> hierarchy;
  std::optional<St> st;
  std::vector<Object> objects;
  uint64_t next_id = 0;

  Object Fresh(std::mt19937_64& rng) {
    return {next_id++, static_cast<uint32_t>(rng() % hierarchy->size()),
            Rand(rng, 0, kDomain - 1)};
  }

  Status Insert(std::mt19937_64& rng) {
    Object o = Fresh(rng);
    CCIDX_RETURN_IF_ERROR(st->Insert(o));
    objects.push_back(o);
    return Status::OK();
  }

  Status Delete(std::mt19937_64& rng) {
    Object o;
    if (!objects.empty() && rng() % 4 != 0) {
      o = objects[rng() % objects.size()];
    } else {
      o = Fresh(rng);
      o.id += 1u << 30;
      next_id--;
    }
    bool found = false;
    CCIDX_RETURN_IF_ERROR(st->Delete(o, &found));
    bool expect = false;
    for (auto it = objects.begin(); it != objects.end(); ++it) {
      if (*it == o) {
        objects.erase(it);
        expect = true;
        break;
      }
    }
    return CompareFound(found, expect, "class delete");
  }

  Status Query(std::mt19937_64& rng) {
    uint32_t cls = static_cast<uint32_t>(rng() % hierarchy->size());
    Coord a = Rand(rng, 0, kDomain - 1);
    Coord b = Rand(rng, 0, kDomain - 1);
    Coord a1 = std::min(a, b), a2 = std::max(a, b);
    std::vector<uint64_t> got;
    VectorSink<uint64_t> sink(&got);
    CCIDX_RETURN_IF_ERROR(st->Query(cls, a1, a2, &sink));
    std::sort(got.begin(), got.end());
    std::vector<uint64_t> want =
        NaiveClassQuery(*hierarchy, objects, cls, a1, a2);
    if (got != want) {
      return Status::Corruption("class query mismatch: got " +
                                std::to_string(got.size()) + ", oracle " +
                                std::to_string(want.size()));
    }
    return Status::OK();
  }

  Status Check() {
    std::mt19937_64 probe(objects.size());
    for (int i = 0; i < 4; ++i) {
      CCIDX_RETURN_IF_ERROR(Query(probe));
    }
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// Generalized (constraint) index adapter
// ---------------------------------------------------------------------------

struct GeneralizedAdapter {
  std::optional<GeneralizedIndex> st;
  std::vector<Interval> keys;  // x-projections, id = tuple id
  uint64_t next_id = 0;

  Status Insert(std::mt19937_64& rng) {
    Coord a = Rand(rng, 0, kDomain - 1);
    Coord b = Rand(rng, 0, kDomain - 1);
    Interval key{std::min(a, b), std::max(a, b), next_id++};
    GeneralizedTuple t(key.id, 2);
    CCIDX_RETURN_IF_ERROR(t.AddRange(0, key.lo, key.hi));
    CCIDX_RETURN_IF_ERROR(t.AddRange(1, 0, Rand(rng, 0, kDomain - 1)));
    CCIDX_RETURN_IF_ERROR(st->Insert(t));
    keys.push_back(key);
    return Status::OK();
  }

  Status Delete(std::mt19937_64& rng) {
    uint64_t id;
    if (!keys.empty() && rng() % 4 != 0) {
      id = keys[rng() % keys.size()].id;
    } else {
      id = next_id + (1u << 30);
    }
    bool found = false;
    CCIDX_RETURN_IF_ERROR(st->Delete(id, &found));
    bool expect = false;
    for (auto it = keys.begin(); it != keys.end(); ++it) {
      if (it->id == id) {
        keys.erase(it);
        expect = true;
        break;
      }
    }
    return CompareFound(found, expect, "generalized delete");
  }

  Status Query(std::mt19937_64& rng) {
    Coord a = Rand(rng, 0, kDomain - 1);
    Coord b = Rand(rng, 0, kDomain - 1);
    return Compare(std::min(a, b), std::max(a, b));
  }

  Status Compare(Coord a1, Coord a2) {
    std::vector<uint64_t> got;
    VectorSink<uint64_t> sink(&got);
    CCIDX_RETURN_IF_ERROR(st->RangeQueryIds(a1, a2, &sink));
    std::sort(got.begin(), got.end());
    std::vector<uint64_t> want;
    for (const Interval& k : keys) {
      if (k.Intersects(a1, a2)) want.push_back(k.id);
    }
    std::sort(want.begin(), want.end());
    if (got != want) {
      return Status::Corruption("generalized query mismatch: got " +
                                std::to_string(got.size()) + ", oracle " +
                                std::to_string(want.size()));
    }
    return Status::OK();
  }

  Status Check() {
    if (st->size() != keys.size()) {
      return Status::Corruption("generalized size mismatch");
    }
    return Compare(0, kDomain);
  }
};

// ---------------------------------------------------------------------------
// Per-family tests
// ---------------------------------------------------------------------------

TEST(Workload, DynamicMetablockTree) {
  RunAllShapes([](Pager* pager, const Shape& shape, std::mt19937_64& rng) {
    auto a = std::make_unique<DiagonalAdapter<DynamicMetablockTree>>();
    std::vector<Point> init;
    for (size_t i = 0; i < shape.initial; ++i) {
      Point p = FreshAboveDiagonal(rng, a->next_id++);
      init.push_back(p);
      a->oracle.Insert(p);
    }
    auto st = DynamicMetablockTree::Build(pager, std::move(init));
    EXPECT_TRUE(st.ok()) << st.status().ToString();
    if (!st.ok()) return decltype(a)(nullptr);
    a->st.emplace(std::move(*st));
    return a;
  });
}

TEST(Workload, DynamicThreeSidedTree) {
  RunAllShapes([](Pager* pager, const Shape& shape, std::mt19937_64& rng) {
    auto a = std::make_unique<ThreeSidedAdapter<DynamicThreeSidedTree>>();
    std::vector<Point> init;
    for (size_t i = 0; i < shape.initial; ++i) {
      Point p = FreshAnywhere(rng, a->next_id++);
      init.push_back(p);
      a->oracle.Insert(p);
    }
    auto st = DynamicThreeSidedTree::Build(pager, std::move(init));
    EXPECT_TRUE(st.ok()) << st.status().ToString();
    if (!st.ok()) return decltype(a)(nullptr);
    a->st.emplace(std::move(*st));
    return a;
  });
}

TEST(Workload, AugmentedMetablockTree) {
  RunAllShapes([](Pager* pager, const Shape& shape, std::mt19937_64& rng) {
    auto a = std::make_unique<DiagonalAdapter<AugmentedMetablockTree>>();
    std::vector<Point> init;
    for (size_t i = 0; i < shape.initial; ++i) {
      Point p = FreshAboveDiagonal(rng, a->next_id++);
      init.push_back(p);
      a->oracle.Insert(p);
    }
    auto st = AugmentedMetablockTree::Build(pager, std::move(init));
    EXPECT_TRUE(st.ok()) << st.status().ToString();
    if (!st.ok()) return decltype(a)(nullptr);
    a->st.emplace(std::move(*st));
    return a;
  });
}

TEST(Workload, AugmentedThreeSidedTree) {
  // The heaviest insert path (TS/TD reorganizations): shorter traces.
  for (Shape shape : {Shape{16, 0, 3000, 256, 0xA75},
                      Shape{8, 0, 1200, 128, 0xA76},
                      Shape{16, 8, 800, 96, 0xA77}}) {
    SCOPED_TRACE("cache=" + std::to_string(shape.cache_pages));
    RunShape(shape, [](Pager* pager, const Shape& sh, std::mt19937_64& rng) {
      auto a = std::make_unique<ThreeSidedAdapter<AugmentedThreeSidedTree>>();
      std::vector<Point> init;
      for (size_t i = 0; i < sh.initial; ++i) {
        Point p = FreshAnywhere(rng, a->next_id++);
        init.push_back(p);
        a->oracle.Insert(p);
      }
      auto st = AugmentedThreeSidedTree::Build(pager, std::move(init));
      EXPECT_TRUE(st.ok()) << st.status().ToString();
      if (!st.ok()) return decltype(a)(nullptr);
      a->st.emplace(std::move(*st));
      return a;
    });
  }
}

TEST(Workload, AugmentedThreeSidedTreeAcceptance10k) {
  // The 10k-op acceptance trace for the heaviest family, uncached.
  RunShape(Shape{16, 0, 10000, 256, 0xA78},
           [](Pager* pager, const Shape& sh, std::mt19937_64& rng) {
             auto a =
                 std::make_unique<ThreeSidedAdapter<AugmentedThreeSidedTree>>();
             std::vector<Point> init;
             for (size_t i = 0; i < sh.initial; ++i) {
               Point p = FreshAnywhere(rng, a->next_id++);
               init.push_back(p);
               a->oracle.Insert(p);
             }
             auto st = AugmentedThreeSidedTree::Build(pager, std::move(init));
             EXPECT_TRUE(st.ok()) << st.status().ToString();
             if (!st.ok()) return decltype(a)(nullptr);
             a->st.emplace(std::move(*st));
             return a;
           });
}

TEST(Workload, CornerStructure) {
  RunAllShapes([](Pager* pager, const Shape& shape, std::mt19937_64& rng) {
    auto a = std::make_unique<CornerAdapter>();
    a->max_points = static_cast<size_t>(shape.branching) * shape.branching * 2;
    std::vector<Point> init;
    size_t n = std::min(a->max_points / 2, shape.initial);
    for (size_t i = 0; i < n; ++i) {
      Point p = FreshAboveDiagonal(rng, a->next_id++);
      init.push_back(p);
      a->oracle.Insert(p);
    }
    auto st = CornerStructure::Build(pager, std::move(init));
    EXPECT_TRUE(st.ok()) << st.status().ToString();
    if (!st.ok()) return decltype(a)(nullptr);
    a->st.emplace(std::move(*st));
    return a;
  });
}

TEST(Workload, ExternalPst) {
  RunAllShapes([](Pager* pager, const Shape& shape, std::mt19937_64& rng) {
    auto a = std::make_unique<ThreeSidedAdapter<ExternalPst>>();
    std::vector<Point> init;
    for (size_t i = 0; i < shape.initial; ++i) {
      Point p = FreshAnywhere(rng, a->next_id++);
      init.push_back(p);
      a->oracle.Insert(p);
    }
    auto st = ExternalPst::Build(pager, std::move(init));
    EXPECT_TRUE(st.ok()) << st.status().ToString();
    if (!st.ok()) return decltype(a)(nullptr);
    a->st.emplace(std::move(*st));
    return a;
  });
}

TEST(Workload, BPlusTree) {
  RunAllShapes([](Pager* pager, const Shape& shape, std::mt19937_64& rng) {
    auto a = std::make_unique<BtAdapter>();
    std::vector<BtEntry> init;
    for (size_t i = 0; i < shape.initial; ++i) {
      BtEntry e{Rand(rng, 0, kDomain - 1), a->next_id++,
                Rand(rng, 0, kDomain - 1)};
      init.push_back(e);
      a->oracle.push_back(e);
    }
    std::sort(init.begin(), init.end());
    auto st = BPlusTree::BulkLoad(pager, init);
    EXPECT_TRUE(st.ok()) << st.status().ToString();
    if (!st.ok()) return decltype(a)(nullptr);
    a->st.emplace(std::move(*st));
    return a;
  });
}

TEST(Workload, IntervalIndex) {
  RunAllShapes([](Pager* pager, const Shape& shape, std::mt19937_64& rng) {
    auto a = std::make_unique<IntervalAdapter<IntervalIndex>>();
    std::vector<Interval> init;
    for (size_t i = 0; i < shape.initial; ++i) {
      Coord x = Rand(rng, 0, kDomain - 1);
      Coord y = Rand(rng, 0, kDomain - 1);
      Interval iv{std::min(x, y), std::max(x, y), a->next_id++};
      init.push_back(iv);
      a->oracle.Insert(iv);
      a->live.push_back(iv);
    }
    auto st = IntervalIndex::Build(pager, std::move(init));
    EXPECT_TRUE(st.ok()) << st.status().ToString();
    if (!st.ok()) return decltype(a)(nullptr);
    a->st.emplace(std::move(*st));
    return a;
  });
}

TEST(Workload, DynamicIntervalIndex) {
  RunAllShapes([](Pager* pager, const Shape& shape, std::mt19937_64& rng) {
    auto a = std::make_unique<IntervalAdapter<DynamicIntervalIndex>>();
    std::vector<Interval> init;
    for (size_t i = 0; i < shape.initial; ++i) {
      Coord x = Rand(rng, 0, kDomain - 1);
      Coord y = Rand(rng, 0, kDomain - 1);
      Interval iv{std::min(x, y), std::max(x, y), a->next_id++};
      init.push_back(iv);
      a->oracle.Insert(iv);
      a->live.push_back(iv);
    }
    auto st = DynamicIntervalIndex::Build(pager, std::move(init));
    EXPECT_TRUE(st.ok()) << st.status().ToString();
    if (!st.ok()) return decltype(a)(nullptr);
    a->st.emplace(std::move(*st));
    return a;
  });
}

TEST(Workload, SimpleClassIndex) {
  RunAllShapes([](Pager* pager, const Shape& shape, std::mt19937_64& rng) {
    auto a = std::make_unique<ClassAdapter<SimpleClassIndex>>();
    a->hierarchy = MakeHierarchy();
    std::vector<Object> init;
    for (size_t i = 0; i < shape.initial; ++i) {
      Object o = a->Fresh(rng);
      init.push_back(o);
      a->objects.push_back(o);
    }
    auto st = SimpleClassIndex::Build(pager, a->hierarchy.get(),
                                      std::move(init));
    EXPECT_TRUE(st.ok()) << st.status().ToString();
    if (!st.ok()) return decltype(a)(nullptr);
    a->st.emplace(std::move(*st));
    return a;
  });
}

TEST(Workload, RakeContractIndex) {
  // Path structures are augmented 3-sided trees — keep traces moderate.
  for (Shape shape : {Shape{16, 0, 3000, 256, 0xBAD1},
                      Shape{8, 0, 1200, 128, 0xBAD2},
                      Shape{16, 96, 1500, 128, 0xBAD3}}) {
    SCOPED_TRACE("cache=" + std::to_string(shape.cache_pages));
    RunShape(shape, [](Pager* pager, const Shape& sh, std::mt19937_64& rng) {
      auto a = std::make_unique<ClassAdapter<RakeContractIndex>>();
      a->hierarchy = MakeHierarchy();
      std::vector<Object> init;
      for (size_t i = 0; i < sh.initial; ++i) {
        Object o = a->Fresh(rng);
        init.push_back(o);
        a->objects.push_back(o);
      }
      auto st = RakeContractIndex::Build(pager, a->hierarchy.get(), init);
      EXPECT_TRUE(st.ok()) << st.status().ToString();
      if (!st.ok()) return decltype(a)(nullptr);
      a->st.emplace(std::move(*st));
      return a;
    });
  }
}

TEST(Workload, RakeContractIndexAcceptance10k) {
  RunShape(Shape{16, 0, 10000, 256, 0xBAD4},
           [](Pager* pager, const Shape& sh, std::mt19937_64& rng) {
             auto a = std::make_unique<ClassAdapter<RakeContractIndex>>();
             a->hierarchy = MakeHierarchy();
             std::vector<Object> init;
             for (size_t i = 0; i < sh.initial; ++i) {
               Object o = a->Fresh(rng);
               init.push_back(o);
               a->objects.push_back(o);
             }
             auto st = RakeContractIndex::Build(pager, a->hierarchy.get(),
                                                init);
             EXPECT_TRUE(st.ok()) << st.status().ToString();
             if (!st.ok()) return decltype(a)(nullptr);
             a->st.emplace(std::move(*st));
             return a;
           });
}

TEST(Workload, GeneralizedIndex) {
  RunAllShapes([](Pager* pager, const Shape& shape, std::mt19937_64& rng) {
    auto a = std::make_unique<GeneralizedAdapter>();
    a->st.emplace(pager, /*arity=*/2, /*indexed_var=*/0);
    // No bulk path: seed through Insert.
    for (size_t i = 0; i < shape.initial / 4; ++i) {
      Status s = a->Insert(rng);
      EXPECT_TRUE(s.ok()) << s.ToString();
      if (!s.ok()) return decltype(a)(nullptr);
    }
    return a;
  });
}

}  // namespace
}  // namespace ccidx
