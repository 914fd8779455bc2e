// Concurrent query serving (DESIGN.md §7): N threads replaying one query
// set against a single shared structure + sharded buffer pool must produce
// bit-identical results to the single-threaded run, for every index
// family; the pin/release/eviction machinery must survive churn on a tiny
// pool; and QueryExecutor::RunBatch must equal the sequential loop.
//
// gtest assertions are not thread-safe, so worker threads count failures
// into atomics and the main thread asserts on the totals.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

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
#include "ccidx/query/executor.h"
#include "ccidx/query/sink.h"
#include "ccidx/tess/tessellation.h"
#include "ccidx/testutil/generators.h"
#include "ccidx/testutil/oracles.h"

namespace ccidx {
namespace {

constexpr uint32_t kB = 16;
constexpr unsigned kThreads = 4;

// Replays `queries` on kThreads threads concurrently (each thread runs the
// full set) and checks every result against the single-threaded answer,
// bit for bit. `run` is a callable Status(const Q&, ResultSink<T>*).
template <typename T, typename Q, typename RunFn>
void ExpectConcurrentReplayAgrees(const std::vector<Q>& queries, RunFn run) {
  std::vector<std::vector<T>> expected(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    VectorSink<T> sink(&expected[i]);
    ASSERT_TRUE(run(queries[i], &sink).ok()) << "query " << i;
  }
  std::atomic<uint64_t> status_failures{0};
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (size_t i = 0; i < queries.size(); ++i) {
        std::vector<T> got;
        VectorSink<T> sink(&got);
        if (!run(queries[i], &sink).ok()) {
          status_failures.fetch_add(1, std::memory_order_relaxed);
        } else if (got != expected[i]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(status_failures.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);

  // Executor batch == the same sequential answers, via per-query
  // VectorSinks created by the sink factory.
  QueryExecutor exec(kThreads);
  std::vector<std::vector<T>> batch_out(queries.size());
  auto report = exec.RunBatch<T>(
      std::span<const Q>(queries),
      [&](size_t i) { return std::make_unique<VectorSink<T>>(&batch_out[i]); },
      run);
  ASSERT_TRUE(report.ok()) << report.report.FirstError().ToString();
  EXPECT_EQ(batch_out, expected);
  uint64_t total = 0;
  for (uint64_t n : report.report.per_thread_queries) total += n;
  EXPECT_EQ(total, queries.size());
}

// Cached pager: a small shared pool so concurrent queries contend on
// frames, miss, and evict — the serving configuration under test.
class ConcurrentQueryTest : public ::testing::Test {
 protected:
  ConcurrentQueryTest() : dev_(PageSizeForBranching(kB)), pager_(&dev_, 128) {}

  BlockDevice dev_;
  Pager pager_;
};

TEST_F(ConcurrentQueryTest, MetablockTreeReplay) {
  auto points = RandomPointsAboveDiagonal(1500, 2500, 7);
  auto tree = MetablockTree::Build(&pager_, points);
  ASSERT_TRUE(tree.ok());
  std::vector<Coord> queries;
  for (Coord a = 0; a <= 2500; a += 167) queries.push_back(a);
  ExpectConcurrentReplayAgrees<Point>(
      queries, [&](Coord a, ResultSink<Point>* sink) {
        return tree->Query({a}, sink);
      });
  ASSERT_TRUE(tree->Destroy().ok());
}

TEST_F(ConcurrentQueryTest, AugmentedMetablockTreeReplay) {
  auto points = RandomPointsAboveDiagonal(1000, 2000, 11);
  auto tree = AugmentedMetablockTree::Build(
      &pager_, std::vector<Point>(points.begin(), points.begin() + 500));
  ASSERT_TRUE(tree.ok());
  for (size_t i = 500; i < points.size(); ++i) {
    ASSERT_TRUE(tree->Insert(points[i]).ok());
  }
  std::vector<Coord> queries;
  for (Coord a = 0; a <= 2000; a += 149) queries.push_back(a);
  ExpectConcurrentReplayAgrees<Point>(
      queries, [&](Coord a, ResultSink<Point>* sink) {
        return tree->Query({a}, sink);
      });
  ASSERT_TRUE(tree->Destroy().ok());
}

TEST_F(ConcurrentQueryTest, ThreeSidedTreesReplay) {
  auto points = RandomPoints(1200, 2000, 13);
  auto tree = ThreeSidedTree::Build(&pager_, points);
  ASSERT_TRUE(tree.ok());
  auto aug = AugmentedThreeSidedTree::Build(
      &pager_, std::vector<Point>(points.begin(), points.end()));
  ASSERT_TRUE(aug.ok());
  std::vector<ThreeSidedQuery> queries;
  for (Coord q = 0; q < 2000; q += 211) {
    queries.push_back({q, q + 700, q / 2});
  }
  ExpectConcurrentReplayAgrees<Point>(
      queries, [&](const ThreeSidedQuery& q, ResultSink<Point>* sink) {
        return tree->Query(q, sink);
      });
  ExpectConcurrentReplayAgrees<Point>(
      queries, [&](const ThreeSidedQuery& q, ResultSink<Point>* sink) {
        return aug->Query(q, sink);
      });
  ASSERT_TRUE(tree->Destroy().ok());
  ASSERT_TRUE(aug->Destroy().ok());
}

TEST_F(ConcurrentQueryTest, CornerStructureReplay) {
  auto points = RandomPointsAboveDiagonal(600, 800, 17);
  auto corner = CornerStructure::Build(&pager_, points);
  ASSERT_TRUE(corner.ok());
  std::vector<Coord> queries;
  for (Coord a = 0; a <= 800; a += 71) queries.push_back(a);
  ExpectConcurrentReplayAgrees<Point>(
      queries, [&](Coord a, ResultSink<Point>* sink) {
        return corner->Query(a, sink);
      });
  ASSERT_TRUE(corner->Free().ok());
}

TEST_F(ConcurrentQueryTest, PstReplay) {
  auto points = RandomPoints(1200, 2000, 19);
  auto pst = ExternalPst::Build(&pager_, points);
  ASSERT_TRUE(pst.ok());
  std::vector<ThreeSidedQuery> queries;
  for (Coord q = 0; q < 2000; q += 211) {
    queries.push_back({q, q + 600, q / 3});
  }
  ExpectConcurrentReplayAgrees<Point>(
      queries, [&](const ThreeSidedQuery& q, ResultSink<Point>* sink) {
        return pst->Query(q, sink);
      });
  ASSERT_TRUE(pst->Free().ok());
}

TEST_F(ConcurrentQueryTest, BPlusTreeReplay) {
  BPlusTree tree(&pager_);
  for (int64_t i = 0; i < 1500; ++i) {
    ASSERT_TRUE(tree.Insert((i * 37) % 997, i, i).ok());
  }
  std::vector<int64_t> queries;
  for (int64_t lo = 0; lo < 997; lo += 89) queries.push_back(lo);
  ExpectConcurrentReplayAgrees<BtEntry>(
      queries, [&](int64_t lo, ResultSink<BtEntry>* sink) {
        return tree.RangeScan(lo, lo + 120, sink);
      });
  ASSERT_TRUE(tree.Destroy().ok());
}

TEST_F(ConcurrentQueryTest, IntervalIndexesReplay) {
  auto intervals = RandomIntervals(1200, 4000, IntervalWorkload::kUniform, 23);
  auto index = IntervalIndex::Build(&pager_, intervals);
  ASSERT_TRUE(index.ok());
  auto dyn = DynamicIntervalIndex::Build(&pager_, intervals);
  ASSERT_TRUE(dyn.ok());
  std::vector<Coord> queries;
  for (Coord q = 0; q < 4000; q += 409) queries.push_back(q);
  ExpectConcurrentReplayAgrees<Interval>(
      queries, [&](Coord q, ResultSink<Interval>* sink) {
        return index->Stab(q, sink);
      });
  ExpectConcurrentReplayAgrees<Interval>(
      queries, [&](Coord q, ResultSink<Interval>* sink) {
        return index->Intersect(q, q + 200, sink);
      });
  ExpectConcurrentReplayAgrees<Interval>(
      queries, [&](Coord q, ResultSink<Interval>* sink) {
        return dyn->Intersect(q, q + 200, sink);
      });
  ASSERT_TRUE(index->Destroy().ok());
  ASSERT_TRUE(dyn->Destroy().ok());
}

TEST_F(ConcurrentQueryTest, ClassIndexesReplay) {
  ClassHierarchy h;
  uint32_t person = *h.AddClass("Person");
  uint32_t student = *h.AddClass("Student", person);
  uint32_t prof = *h.AddClass("Professor", person);
  uint32_t phd = *h.AddClass("PhD", student);
  ASSERT_TRUE(h.Freeze().ok());
  std::vector<Object> objects;
  for (uint64_t i = 0; i < 600; ++i) {
    objects.push_back({i, static_cast<uint32_t>(i % 4),
                       static_cast<Coord>((i * 29) % 500)});
  }
  SimpleClassIndex simple(&pager_, &h);
  for (const Object& o : objects) ASSERT_TRUE(simple.Insert(o).ok());
  auto rake = RakeContractIndex::Build(&pager_, &h, objects);
  ASSERT_TRUE(rake.ok());

  struct ClassQuery {
    uint32_t c;
    Coord a1, a2;
    bool operator==(const ClassQuery&) const = default;
  };
  std::vector<ClassQuery> queries;
  for (uint32_t c : {person, student, prof, phd}) {
    for (Coord a1 = 0; a1 < 500; a1 += 110) queries.push_back({c, a1, a1 + 90});
  }
  ExpectConcurrentReplayAgrees<uint64_t>(
      queries, [&](const ClassQuery& q, ResultSink<uint64_t>* sink) {
        return simple.Query(q.c, q.a1, q.a2, sink);
      });
  ExpectConcurrentReplayAgrees<uint64_t>(
      queries, [&](const ClassQuery& q, ResultSink<uint64_t>* sink) {
        return rake->Query(q.c, q.a1, q.a2, sink);
      });
}

TEST(ConcurrentTessellationTest, VisitRangeBlocksReplay) {
  auto tess = Tessellation::Square(64, 16);
  ASSERT_TRUE(tess.ok());
  std::vector<RangeQuery2D> queries;
  for (Coord x = 0; x < 60; x += 13) queries.push_back({x, x + 25, x / 2, 40});
  ExpectConcurrentReplayAgrees<TessBlock>(
      queries, [&](const RangeQuery2D& q, ResultSink<TessBlock>* sink) {
        tess->VisitRangeBlocks(q, sink);
        return Status::OK();
      });
}

// --- Pin / release / eviction churn on a tiny pool ------------------------

TEST(ConcurrentPagerStressTest, PinReleaseEvictionChurnTinyPool) {
  constexpr uint32_t kPageSize = 256;
  constexpr uint32_t kCapacity = 8;  // collapses to one shard
  constexpr int kPages = 64;
  constexpr int kItersPerThread = 4000;

  BlockDevice dev(kPageSize);
  Pager pager(&dev, kCapacity);
  ASSERT_EQ(pager.shard_count(), 1u);
  std::vector<PageId> ids;
  for (int i = 0; i < kPages; ++i) {
    PageId id = pager.Allocate();
    auto page = pager.PinMut(id, Pager::MutMode::kOverwrite);
    ASSERT_TRUE(page.ok());
    std::memset(page->data().data(), (i * 37 + 11) & 0xFF, kPageSize);
    ASSERT_TRUE(page->Release().ok());
    ids.push_back(id);
  }
  ASSERT_TRUE(pager.DropCache().ok());
  pager.ResetStats();

  // Every iteration pins a pseudo-random page (4 concurrent pins < 8
  // frames, so eviction always finds a victim), verifies its fill byte
  // front and back, and releases. Constant miss/evict churn.
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(t * 7919 + 1);
      for (int it = 0; it < kItersPerThread; ++it) {
        int i = static_cast<int>(rng() % kPages);
        auto pin = pager.Pin(ids[i]);
        if (!pin.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        auto data = pin->data();
        uint8_t want = static_cast<uint8_t>((i * 37 + 11) & 0xFF);
        if (data.front() != want || data.back() != want ||
            data[kPageSize / 2] != want) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(pager.outstanding_pins(), 0u);
  EXPECT_EQ(pager.pinned_frames(), 0u);
  // Shard-merged stats preserve snapshot semantics: every pin accounted.
  IoStats s = pager.CombinedStats();
  EXPECT_EQ(s.pin_requests, uint64_t{kThreads} * kItersPerThread);
  EXPECT_EQ(s.cache_hits + s.cache_misses, s.pin_requests);
  EXPECT_TRUE(pager.Flush().ok());
}

TEST(ConcurrentPagerStressTest, MultiShardHotSetStaysResident) {
  constexpr uint32_t kPageSize = 256;
  constexpr uint32_t kCapacity = 128;  // multiple shards
  // Hot set fits every shard layout: page ids 0..63 hash to at most 12
  // pages per shard even at the S = 8 cap (verified against MixPageId),
  // so the clock never needs to evict once the set is warm.
  constexpr int kPages = 64;
  BlockDevice dev(kPageSize);
  Pager pager(&dev, kCapacity);
  EXPECT_GE(pager.shard_count(), 2u);
  std::vector<PageId> ids;
  for (int i = 0; i < kPages; ++i) {
    PageId id = pager.Allocate();
    auto page = pager.PinMut(id, Pager::MutMode::kOverwrite);
    ASSERT_TRUE(page.ok());
    std::memset(page->data().data(), i + 1, kPageSize);
    ASSERT_TRUE(page->Release().ok());
    ids.push_back(id);
  }
  ASSERT_TRUE(pager.DropCache().ok());

  // Warm every page once, then concurrent replay must be all hits (no
  // device reads): with per-shard headroom the clock never evicts the
  // hot set, matching single-pool behavior.
  for (PageId id : ids) {
    auto pin = pager.Pin(id);
    ASSERT_TRUE(pin.ok());
  }
  pager.ResetStats();
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(t + 1);
      for (int it = 0; it < 2000; ++it) {
        int i = static_cast<int>(rng() % kPages);
        auto pin = pager.Pin(ids[i]);
        if (!pin.ok() || pin->data()[3] != static_cast<uint8_t>(i + 1)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0u);
  IoStats s = pager.CombinedStats();
  EXPECT_EQ(s.device_reads, 0u);
  EXPECT_EQ(s.cache_misses, 0u);
}

// Pin-saturating one shard must not fail while the rest of the pool has
// capacity: read pins degrade to private transient copies (coherent — the
// page missed, so the device copy is current), and ResourceExhausted is
// reserved for the historical "whole pool pinned" condition.
TEST(ConcurrentPagerStressTest, ShardSaturationDegradesToTransientReads) {
  setenv("CCIDX_PAGER_SHARDS", "2", 1);
  BlockDevice dev(256);
  Pager pager(&dev, 256);
  unsetenv("CCIDX_PAGER_SHARDS");
  ASSERT_EQ(pager.shard_count(), 2u);
  std::vector<PageId> ids;
  for (int i = 0; i < 600; ++i) {
    PageId id = pager.Allocate();
    auto page = pager.PinMut(id, Pager::MutMode::kOverwrite);
    ASSERT_TRUE(page.ok());
    std::memset(page->data().data(), i & 0xFF, 256);
    ASSERT_TRUE(page->Release().ok());
    ids.push_back(id);
  }
  ASSERT_TRUE(pager.DropCache().ok());

  std::vector<PageRef> held;
  size_t pinned = 0;
  bool exhausted = false;
  for (int i = 0; i < 600; ++i) {
    auto pin = pager.Pin(ids[i]);
    if (!pin.ok()) {
      EXPECT_EQ(pin.status().code(), StatusCode::kResourceExhausted);
      exhausted = true;
      break;
    }
    EXPECT_EQ(pin->data()[5], static_cast<uint8_t>(i & 0xFF)) << i;
    held.push_back(std::move(*pin));
    pinned++;
  }
  // Progress guarantee: no pin may fail before the pool itself is fully
  // pinned — at least `capacity` held pins succeed even though single
  // shards saturate much earlier.
  EXPECT_GE(pinned, 256u);
  // And once every frame is pinned, the historical error returns.
  EXPECT_TRUE(exhausted);
  held.clear();
  EXPECT_EQ(pager.outstanding_pins(), 0u);
  EXPECT_TRUE(pager.Pin(ids[0]).ok());
}

// Concurrent pins of the same page share one frame; pin counts are atomic.
TEST(ConcurrentPagerStressTest, SamePageConcurrentPins) {
  BlockDevice dev(256);
  Pager pager(&dev, 32);
  PageId id = pager.Allocate();
  auto page = pager.PinMut(id, Pager::MutMode::kOverwrite);
  ASSERT_TRUE(page.ok());
  std::memset(page->data().data(), 0x5A, 256);
  ASSERT_TRUE(page->Release().ok());

  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int it = 0; it < 5000; ++it) {
        auto pin = pager.Pin(id);
        if (!pin.ok() || pin->data()[7] != 0x5A) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(pager.outstanding_pins(), 0u);
}

// --- Executor surface -----------------------------------------------------

TEST(QueryExecutorTest, BatchEqualsSequentialLoopAndReportsIo) {
  BlockDevice dev(PageSizeForBranching(kB));
  Pager pager(&dev, 64);
  auto points = RandomPointsAboveDiagonal(1000, 2000, 31);
  auto tree = MetablockTree::Build(&pager, points);
  ASSERT_TRUE(tree.ok());
  // The tree outgrows the pool: write the build's dirty frames back now,
  // so no eviction below owes the device a write-back.
  ASSERT_TRUE(pager.Flush().ok());

  std::vector<Coord> queries;
  for (Coord a = 0; a <= 2000; a += 101) queries.push_back(a);

  // Sequential loop with CountSinks.
  std::vector<uint64_t> seq_counts;
  for (Coord a : queries) {
    CountSink<Point> count;
    ASSERT_TRUE(tree->Query({a}, &count).ok());
    seq_counts.push_back(count.count());
  }

  QueryExecutor exec(kThreads);
  ASSERT_EQ(exec.num_threads(), kThreads);
  auto batch = exec.RunBatch<Point>(
      std::span<const Coord>(queries),
      [](size_t) { return std::make_unique<CountSink<Point>>(); },
      [&](Coord a, ResultSink<Point>* sink) { return tree->Query({a}, sink); },
      &pager);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch.sinks.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto* count = static_cast<CountSink<Point>*>(batch.sinks[i].get());
    EXPECT_EQ(count->count(), seq_counts[i]) << "query " << i;
  }
  // The batch I/O diff is populated and consistent (warm pool: pins but
  // no device writes from a read-only batch).
  EXPECT_GT(batch.report.io.pin_requests, 0u);
  EXPECT_EQ(batch.report.io.device_writes, 0u);
  uint64_t total = 0;
  for (uint64_t n : batch.report.per_thread_queries) total += n;
  EXPECT_EQ(total, queries.size());
  ASSERT_TRUE(tree->Destroy().ok());
}

TEST(QueryExecutorTest, PerQueryStatusesPreserveOrderAndErrors) {
  QueryExecutor exec(3);
  std::vector<int> queries(100);
  for (int i = 0; i < 100; ++i) queries[i] = i;
  auto report = exec.RunBatch(
      std::span<const int>(queries),
      [](int q, size_t, unsigned) {
        return q % 10 == 3 ? Status::InvalidArgument("q" + std::to_string(q))
                           : Status::OK();
      });
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.FirstError().code(), StatusCode::kInvalidArgument);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(report.statuses[i].ok(), i % 10 != 3) << i;
  }
  uint64_t total = 0;
  for (uint64_t n : report.per_thread_queries) total += n;
  EXPECT_EQ(total, queries.size());
}

TEST(QueryExecutorTest, ServesMultipleBatchesAndEmptyBatch) {
  QueryExecutor exec(2);
  std::vector<int> empty;
  auto r0 = exec.RunBatch(std::span<const int>(empty),
                          [](int, size_t, unsigned) { return Status::OK(); });
  EXPECT_TRUE(r0.ok());
  EXPECT_TRUE(r0.statuses.empty());
  for (int round = 0; round < 3; ++round) {
    std::vector<int> queries(17, round);
    std::atomic<int> ran{0};
    auto r = exec.RunBatch(std::span<const int>(queries),
                           [&](int, size_t, unsigned) {
                             ran.fetch_add(1, std::memory_order_relaxed);
                             return Status::OK();
                           });
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(ran.load(), 17);
  }
}

}  // namespace
}  // namespace ccidx
