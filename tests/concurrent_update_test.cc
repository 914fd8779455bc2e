// Updates under the executor's quiesce point, interleaved with concurrent
// read batches (DESIGN.md §7/§8). Run under TSan in CI.
//
// The epoch contract: RunBatch holds the quiesce lock shared for the
// whole batch, an updater holds it exclusive for a round of updates, so
// (a) no update ever runs concurrently with a query, and (b) every batch
// observes exactly one round boundary's state. The tests drive an
// updater thread against concurrent batches and assert:
//   * every batch's results are bit-identical to the sequential replay's
//     state at ONE round boundary (never a torn mix of two rounds),
//   * the final structure state is bit-identical to a fully sequential
//     replay of the same rounds.

#include <atomic>
#include <chrono>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ccidx/core/metablock_tree.h"  // PageSizeForBranching
#include "ccidx/io/block_device.h"
#include "ccidx/io/pager.h"
#include "ccidx/pst/external_pst.h"
#include "ccidx/query/executor.h"
#include "ccidx/query/sink.h"
#include "ccidx/testutil/generators.h"
#include "ccidx/testutil/oracles.h"

namespace ccidx {
namespace {

constexpr uint32_t kB = 16;
constexpr Coord kDomain = 4096;
constexpr size_t kInitial = 1024;
constexpr size_t kRounds = 24;
constexpr size_t kUpdatesPerRound = 32;
constexpr size_t kQueriesPerBatch = 24;

struct Round {
  std::vector<Point> inserts;
  std::vector<Point> deletes;
};

std::vector<Round> MakeRounds(const std::vector<Point>& initial) {
  std::mt19937_64 rng(0x9E27);
  std::uniform_int_distribution<Coord> d(0, kDomain - 1);
  std::vector<Round> rounds(kRounds);
  std::vector<Point> live = initial;
  uint64_t id = 1 << 20;
  for (Round& r : rounds) {
    for (size_t i = 0; i < kUpdatesPerRound; ++i) {
      if (i % 2 == 0) {
        Point p{d(rng), d(rng), id++};
        r.inserts.push_back(p);
        live.push_back(p);
      } else {
        size_t j = rng() % live.size();
        r.deletes.push_back(live[j]);
        live.erase(live.begin() + j);
      }
    }
  }
  return rounds;
}

std::vector<ThreeSidedQuery> MakeQueries(uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<Coord> d(0, kDomain - 1);
  std::vector<ThreeSidedQuery> qs;
  for (size_t i = 0; i < kQueriesPerBatch; ++i) {
    Coord a = d(rng), b = d(rng);
    qs.push_back({std::min(a, b), std::max(a, b), d(rng)});
  }
  return qs;
}

Status ApplyRound(ExternalPst* st, const Round& r) {
  for (const Point& p : r.inserts) {
    CCIDX_RETURN_IF_ERROR(st->Insert(p));
  }
  for (const Point& p : r.deletes) {
    bool found = false;
    CCIDX_RETURN_IF_ERROR(st->Delete(p, &found));
  }
  return Status::OK();
}

// Answers at every round boundary, computed on an oracle replay.
std::vector<std::vector<std::vector<Point>>> BoundaryAnswers(
    const std::vector<Point>& initial, const std::vector<Round>& rounds,
    const std::vector<ThreeSidedQuery>& queries) {
  std::vector<std::vector<std::vector<Point>>> out;
  PointOracle oracle(initial);
  auto snapshot = [&]() {
    std::vector<std::vector<Point>> per_query;
    for (const auto& q : queries) per_query.push_back(oracle.ThreeSided(q));
    out.push_back(std::move(per_query));
  };
  snapshot();
  for (const Round& r : rounds) {
    for (const Point& p : r.inserts) oracle.Insert(p);
    for (const Point& p : r.deletes) oracle.Erase(p);
    snapshot();
  }
  return out;
}

TEST(ConcurrentUpdate, QuiescedUpdatesMatchSequentialReplay) {
  BlockDevice dev(PageSizeForBranching(kB));
  // A shared pool: concurrent read pins against update-epoch writes is
  // exactly the surface TSan should see.
  Pager pager(&dev, 512);
  auto initial = RandomPoints(kInitial, kDomain, 0x51);
  auto st = ExternalPst::Build(&pager, std::vector<Point>(initial));
  ASSERT_TRUE(st.ok());
  auto rounds = MakeRounds(initial);
  auto queries = MakeQueries(0x52);
  auto boundaries = BoundaryAnswers(initial, rounds, queries);

  QueryExecutor exec(4);
  std::atomic<bool> reading{false};
  std::atomic<bool> done{false};
  std::atomic<size_t> rounds_applied{0};
  Status updater_status;
  std::thread updater([&] {
    // Start once the first batch is under way, so at least one batch runs
    // however the threads are scheduled.
    while (!reading.load(std::memory_order_acquire)) std::this_thread::yield();
    for (const Round& r : rounds) {
      auto guard = exec.Quiesce();  // drains in-flight batches
      Status s = ApplyRound(&*st, r);
      if (!s.ok()) {
        updater_status = s;
        break;
      }
      rounds_applied.fetch_add(1, std::memory_order_release);
    }
    done.store(true, std::memory_order_release);
  });

  // Run batches until the updater finishes; every batch must observe
  // exactly one boundary state, at or beyond what was applied when the
  // batch started.
  size_t batches = 0;
  while (!done.load(std::memory_order_acquire)) {
    size_t applied_before = rounds_applied.load(std::memory_order_acquire);
    std::vector<std::vector<Point>> got(queries.size());
    reading.store(true, std::memory_order_release);
    auto report = exec.RunBatch(
        std::span<const ThreeSidedQuery>(queries),
        [&](const ThreeSidedQuery& q, size_t index, unsigned) {
          VectorSink<Point> sink(&got[index]);
          return st->Query(q, &sink);
        },
        &pager);
    ASSERT_TRUE(report.ok()) << report.FirstError().ToString();
    size_t applied_after = rounds_applied.load(std::memory_order_acquire);
    for (auto& g : got) SortPoints(&g);
    // Find the boundary this batch observed.
    bool matched = false;
    for (size_t r = applied_before; r <= applied_after && !matched; ++r) {
      matched = (got == boundaries[r]);
    }
    EXPECT_TRUE(matched)
        << "batch " << batches << " saw a state matching no round boundary "
        << "in [" << applied_before << ", " << applied_after << "]";
    batches++;
    if (::testing::Test::HasFailure()) break;
    // Give the updater a window: a reader-preferring shared_mutex could
    // otherwise starve the exclusive epoch behind back-to-back batches.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  updater.join();
  ASSERT_TRUE(updater_status.ok()) << updater_status.ToString();
  EXPECT_GT(batches, 0u);

  // Final state must be bit-identical to the sequential replay.
  std::vector<std::vector<Point>> finals(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    VectorSink<Point> sink(&finals[i]);
    ASSERT_TRUE(st->Query(queries[i], &sink).ok());
    SortPoints(&finals[i]);
  }
  EXPECT_EQ(finals, boundaries.back());
  ASSERT_TRUE(st->CheckInvariants().ok());
}

TEST(ConcurrentUpdate, QuiesceIsExclusiveWithBatches) {
  // While a batch runs, Quiesce() must wait; while the guard is held, no
  // batch may start. Detected via a flag the updater flips inside the
  // guard and every query reads.
  BlockDevice dev(PageSizeForBranching(kB));
  Pager pager(&dev, 64);
  auto st = ExternalPst::Build(&pager, RandomPoints(256, kDomain, 0x53));
  ASSERT_TRUE(st.ok());
  QueryExecutor exec(4);
  std::atomic<bool> updating{false};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> violations{0};
  std::thread updater([&] {
    std::mt19937_64 rng(0x54);
    uint64_t id = 1 << 24;
    while (!stop.load(std::memory_order_acquire)) {
      auto guard = exec.Quiesce();
      updating.store(true, std::memory_order_release);
      Point p{static_cast<Coord>(rng() % kDomain),
              static_cast<Coord>(rng() % kDomain), id++};
      Status s = st->Insert(p);
      if (!s.ok()) violations.fetch_add(1);
      updating.store(false, std::memory_order_release);
    }
  });
  auto queries = MakeQueries(0x55);
  for (int iter = 0; iter < 50; ++iter) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    auto report = exec.RunBatch(
        std::span<const ThreeSidedQuery>(queries),
        [&](const ThreeSidedQuery& q, size_t, unsigned) {
          if (updating.load(std::memory_order_acquire)) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
          CountSink<Point> sink;
          return st->Query(q, &sink);
        });
    ASSERT_TRUE(report.ok());
  }
  stop.store(true, std::memory_order_release);
  updater.join();
  EXPECT_EQ(violations.load(), 0u)
      << "a query ran while an update epoch was active";
  EXPECT_GT(exec.quiesce_epochs(), 0u);
}

}  // namespace
}  // namespace ccidx
