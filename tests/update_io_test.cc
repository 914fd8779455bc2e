// Amortized-I/O regression tests for the dynamization layer (DESIGN.md
// §8) — the update-path mirror of build_test's sort-bound check.
//
// For each family, a deterministic 2^k-op update trace (interleaved
// inserts and deletes, short-interval workload so membership probes stay
// output-sparse) runs against a cold cache (capacity 0: every page access
// is a device transfer, the paper's cost model). The measured amortized
// device I/Os per update must stay within a constant factor of the bound
// documented in the family's header. The traces and structures are fully
// deterministic, so the measured counts are exact and the constants can
// stay tight without flakes.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "ccidx/bptree/bptree.h"
#include "ccidx/classes/simple_class_index.h"
#include "ccidx/core/augmented_metablock_tree.h"
#include "ccidx/core/augmented_three_sided_tree.h"
#include "ccidx/core/metablock_tree.h"
#include "ccidx/dynamic/adapters.h"
#include "ccidx/interval/dynamic_interval_index.h"
#include "ccidx/interval/interval_index.h"
#include "ccidx/io/block_device.h"
#include "ccidx/io/pager.h"
#include "ccidx/pst/external_pst.h"

namespace ccidx {
namespace {

constexpr uint32_t kB = 16;
constexpr Coord kDomain = 1 << 20;
constexpr size_t kN = 4096;      // initial records
constexpr size_t kOps = 2048;    // 2^11 updates per trace

double LogB(double n, double b) { return std::log(n) / std::log(b); }
double Log2(double n) { return std::log2(n); }

// Short spans (y - x <= 64): stabbing/probe sets stay O(1) blocks, so
// membership probes cost their search term, not a t/B reporting term.
Point ShortSpanPoint(std::mt19937_64& rng, uint64_t id) {
  std::uniform_int_distribution<Coord> d(0, kDomain - 65);
  std::uniform_int_distribution<Coord> len(0, 64);
  Coord x = d(rng);
  return {x, x + len(rng), id};
}

struct Trace {
  std::vector<Point> initial;
  std::vector<std::pair<bool, Point>> ops;  // (is_insert, point)
};

Trace MakeTrace(uint64_t seed) {
  Trace t;
  std::mt19937_64 rng(seed);
  uint64_t id = 0;
  for (size_t i = 0; i < kN; ++i) t.initial.push_back(ShortSpanPoint(rng, id++));
  std::vector<Point> live = t.initial;
  for (size_t i = 0; i < kOps; ++i) {
    if (i % 2 == 0) {
      Point p = ShortSpanPoint(rng, id++);
      t.ops.push_back({true, p});
      live.push_back(p);
    } else {
      size_t j = rng() % live.size();
      t.ops.push_back({false, live[j]});
      live.erase(live.begin() + j);
    }
  }
  return t;
}

// The interval families take a trace point (x, y) as the interval [x, y].
template <typename St>
auto Record(const Point& p) {
  if constexpr (std::is_same_v<St, IntervalIndex> ||
                std::is_same_v<St, DynamicIntervalIndex>) {
    return Interval{p.x, p.y, p.id};
  } else {
    return p;
  }
}

// Runs the trace against `st` (Insert/Delete surface) and returns the
// measured amortized device I/Os per update.
template <typename St>
double MeasureUpdates(BlockDevice* dev, St* st, const Trace& t) {
  dev->ResetStats();
  for (const auto& [is_insert, p] : t.ops) {
    if (is_insert) {
      Status s = st->Insert(Record<St>(p));
      EXPECT_TRUE(s.ok()) << s.ToString();
    } else {
      bool found = false;
      Status s = st->Delete(Record<St>(p), &found);
      EXPECT_TRUE(s.ok()) << s.ToString();
      EXPECT_TRUE(found);
    }
  }
  IoStats used = dev->stats();
  return static_cast<double>(used.device_reads + used.device_writes) /
         static_cast<double>(t.ops.size());
}

template <typename St, typename Make>
void ExpectAmortizedWithin(Make make, double bound, double factor,
                           const char* what, uint64_t seed = 0x10) {
  BlockDevice dev(PageSizeForBranching(kB));
  Pager pager(&dev, 0);
  Trace t = MakeTrace(seed);
  auto st = make(&pager, t);
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  double per_update = MeasureUpdates(&dev, &*st, t);
  // As a string: gtest's numeric RecordProperty takes an int and would
  // truncate the measurement.
  char recorded[32];
  std::snprintf(recorded, sizeof(recorded), "%.6g", per_update);
  ::testing::Test::RecordProperty("per_update_ios", recorded);
  EXPECT_LE(per_update, factor * bound)
      << what << ": measured " << per_update << " I/Os per update, bound "
      << bound << " (factor " << factor << ")";
  // And the bound is not vacuous: the measurement is within sight of it.
  EXPECT_GT(per_update, 0.0);
}

TEST(UpdateIoBound, BPlusTree) {
  // Worst-case O(log_B n) per update.
  BlockDevice dev(PageSizeForBranching(kB));
  Pager pager(&dev, 0);
  Trace t = MakeTrace(0x13);
  std::vector<BtEntry> init;
  for (const Point& p : t.initial) init.push_back({p.x, p.id, p.y});
  std::sort(init.begin(), init.end());
  auto st = BPlusTree::BulkLoad(&pager, init);
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  dev.ResetStats();
  for (const auto& [is_insert, p] : t.ops) {
    if (is_insert) {
      ASSERT_TRUE(st->Insert(p.x, p.id, p.y).ok());
    } else {
      bool found = false;
      ASSERT_TRUE(st->Delete(p.x, p.id, &found).ok());
    }
  }
  IoStats used = dev.stats();
  double per_update =
      static_cast<double>(used.device_reads + used.device_writes) /
      static_cast<double>(t.ops.size());
  EXPECT_LE(per_update, 6.0 * LogB(kN, kB))
      << "B+-tree: " << per_update << " I/Os per update";
}

TEST(UpdateIoBound, ExternalPstShadowPath) {
  // Shadow-path insert rewrites the routing path (2 transfers per level:
  // the planning read + the replacement write) + the amortized rebuild
  // charge, checked against the O(log2 n + (log2 n)^2/B) envelope.
  ExpectAmortizedWithin<ExternalPst>(
      [](Pager* pager, const Trace& t) {
        return ExternalPst::Build(pager,
                                  std::vector<Point>(t.initial.begin(),
                                                     t.initial.end()));
      },
      Log2(kN) + Log2(kN) * Log2(kN) / kB, /*factor=*/10.0,
      "external PST (shadow path)");
}

TEST(UpdateIoBound, AugmentedMetablockTree) {
  // Insert amortized O(log_B n + (log_B n)^2/B) (Thm 3.7); weak delete =
  // membership probe O(log_B n + t_probe/B) + amortized purge charge
  // O((log_B n)/B). Short spans keep t_probe = O(B).
  double lb = LogB(kN, kB);
  ExpectAmortizedWithin<AugmentedMetablockTree>(
      [](Pager* pager, const Trace& t) {
        return AugmentedMetablockTree::Build(
            pager, std::vector<Point>(t.initial.begin(), t.initial.end()));
      },
      lb + lb * lb / kB + 1.0, /*factor=*/20.0, "augmented metablock tree");
}

TEST(UpdateIoBound, AugmentedThreeSidedTree) {
  // Lemma 4.4: insert amortized O(log_B n + log2 B + (log_B n)^2/B) — the
  // Section 3.2 machinery with 3-sided corner structures; weak delete =
  // degenerate-slab probe + amortized purge charge, as above.
  double lb = LogB(kN, kB);
  ExpectAmortizedWithin<AugmentedThreeSidedTree>(
      [](Pager* pager, const Trace& t) {
        return AugmentedThreeSidedTree::Build(
            pager, std::vector<Point>(t.initial.begin(), t.initial.end()));
      },
      lb + Log2(kB) + lb * lb / kB + 1.0, /*factor=*/20.0,
      "augmented 3-sided tree");
}

TEST(UpdateIoBound, DynamicMetablockTree) {
  // Logarithmic method: amortized insert O((log2(n/B) * log_B n)/B) plus
  // the per-op search terms; delete probe O(log_B n + t_probe/B) over
  // <= log2(n/B) levels.
  double levels = Log2(static_cast<double>(kN) / kB) + 1;
  double bound = levels * (LogB(kN, kB) + 1.0);
  ExpectAmortizedWithin<DynamicMetablockTree>(
      [](Pager* pager, const Trace& t) {
        return DynamicMetablockTree::Build(
            pager, std::vector<Point>(t.initial.begin(), t.initial.end()));
      },
      bound, /*factor=*/8.0, "dynamized metablock tree");
}

// The interval families build from the trace's points as intervals.
template <typename St>
Result<St> BuildIntervals(Pager* pager, const Trace& t) {
  std::vector<Interval> init;
  for (const Point& p : t.initial) init.push_back(Record<St>(p));
  return St::Build(pager, std::move(init));
}

TEST(UpdateIoBound, IntervalIndex) {
  // Endpoint B+-tree O(log_B n) + stabbing-tree amortized insert /
  // tombstone delete (short intervals keep probes sparse).
  double lb = LogB(kN, kB);
  ExpectAmortizedWithin<IntervalIndex>(BuildIntervals<IntervalIndex>,
                                       2 * lb + lb * lb / kB + 1.0,
                                       /*factor=*/20.0, "interval index",
                                       /*seed=*/0x11);
}

TEST(UpdateIoBound, DynamicIntervalIndex) {
  // Endpoint B+-tree O(log_B n) (plus the delete's identity probe) +
  // the stabbing ExternalPst's O(log2 n) path and amortized rebuild
  // charge.
  ExpectAmortizedWithin<DynamicIntervalIndex>(
      BuildIntervals<DynamicIntervalIndex>, LogB(kN, kB) + Log2(kN),
      /*factor=*/6.0, "dynamic interval index");
}

TEST(UpdateIoBound, SimpleClassIndex) {
  // Worst-case O(log2 c * log_B n) per update (Theorem 2.6).
  ClassHierarchy h;
  uint32_t root = *h.AddClass("root");
  for (int i = 0; i < 3; ++i) {
    uint32_t mid = *h.AddClass("mid", root);
    for (int j = 0; j < 4; ++j) (void)*h.AddClass("leaf", mid);
  }
  ASSERT_TRUE(h.Freeze().ok());
  BlockDevice dev(PageSizeForBranching(kB));
  Pager pager(&dev, 0);
  Trace t = MakeTrace(0x12);
  std::vector<Object> init;
  for (const Point& p : t.initial) {
    init.push_back({p.id, static_cast<uint32_t>(p.id % h.size()),
                    p.x});
  }
  auto st = SimpleClassIndex::Build(&pager, &h, std::move(init));
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  dev.ResetStats();
  for (const auto& [is_insert, p] : t.ops) {
    Object o{p.id, static_cast<uint32_t>(p.id % h.size()), p.x};
    if (is_insert) {
      ASSERT_TRUE(st->Insert(o).ok());
    } else {
      bool found = false;
      ASSERT_TRUE(st->Delete(o, &found).ok());
    }
  }
  IoStats used = dev.stats();
  double per_update =
      static_cast<double>(used.device_reads + used.device_writes) /
      static_cast<double>(t.ops.size());
  double bound = Log2(h.size()) * LogB(kN, kB);
  EXPECT_LE(per_update, 6.0 * bound)
      << "simple class index: " << per_update << " I/Os per update, bound "
      << bound;
}

}  // namespace
}  // namespace ccidx
