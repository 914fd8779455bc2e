// Update benchmark (DESIGN.md §8): amortized device I/Os per update
// (cold cache — the paper's cost model) vs each family's documented
// amortized bound, across the dynamized families. Every run emits JSON
// metric lines (bench_util's reporter), so the update-cost trajectory is
// tracked per PR next to the build and query series.
//
// The workload holds the structure size steady: each measured update
// pair inserts one fresh short-span record and deletes one old record,
// cycling deletions through the live set so tombstone purges and
// log-method merges fire at their natural cadence.

#include "bench_util.h"

#include <atomic>
#include <cstdlib>
#include <deque>
#include <memory>
#include <random>
#include <thread>

#include "ccidx/bptree/bptree.h"
#include "ccidx/core/augmented_metablock_tree.h"
#include "ccidx/dynamic/adapters.h"
#include "ccidx/interval/interval_index.h"
#include "ccidx/io/wal.h"
#include "ccidx/pst/external_pst.h"
#include "ccidx/query/epoch_gate.h"
#include "ccidx/query/update_executor.h"
#include "ccidx/testutil/generators.h"

namespace ccidx {
namespace bench {
namespace {

constexpr Coord kDomain = 1 << 22;

// Short spans keep delete membership probes output-sparse (see
// tests/update_io_test.cc): the measured cost is the update machinery,
// not a t/B reporting term.
Point ShortSpan(std::mt19937_64& rng, uint64_t id) {
  Coord x = static_cast<Coord>(rng() % (kDomain - 256));
  return {x, x + static_cast<Coord>(rng() % 256), id};
}

std::vector<Point> ShortSpanSet(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Point> pts;
  pts.reserve(n);
  for (size_t i = 0; i < n; ++i) pts.push_back(ShortSpan(rng, i));
  return pts;
}

void ReportUpdate(benchmark::State& state, double per_update, double bound) {
  state.counters["update_ios"] = per_update;
  state.counters["bound_ios"] = bound;
  state.counters["io_vs_bound"] = per_update / bound;
}

// CCIDX_WAL=1 runs the whole series with crash durability on: a
// mem-backed WAL attached after the (unlogged) bulk build, so every
// measured update runs the full before-image/force/commit protocol.
// The update-scaling CI bar runs the multi-writer series both ways.
// Attach after the build — AttachWal's baseline checkpoint snapshots
// the post-build allocation state.
std::unique_ptr<Wal> MaybeAttachWal(Disk* disk) {
  const char* e = std::getenv("CCIDX_WAL");
  if (e == nullptr || e[0] != '1') return nullptr;
  auto wal = std::make_unique<Wal>(&disk->device, MakeMemWalStorage());
  disk->pager.AttachWal(wal.get());
  return wal;
}

// Drives one insert+delete pair per measured step against `st`
// (Insert/Delete surface), reporting amortized I/Os per single update.
template <typename St>
void RunUpdateLoop(benchmark::State& state, BlockDevice& dev, St* st,
                   std::vector<Point> live, uint64_t next_id, double bound) {
  std::mt19937_64 rng(0xBE9C);
  std::deque<Point> fifo(live.begin(), live.end());
  uint64_t updates = 0;
  IoStats before = dev.stats();
  for (auto _ : state) {
    Point fresh = ShortSpan(rng, next_id++);
    CCIDX_CHECK(st->Insert(fresh).ok());
    fifo.push_back(fresh);
    bool found = false;
    CCIDX_CHECK(st->Delete(fifo.front(), &found).ok());
    fifo.pop_front();
    updates += 2;
  }
  uint64_t ios = (dev.stats() - before).TotalIos();
  ReportUpdate(state, static_cast<double>(ios) / updates, bound);
}

void BM_UpdateAugmentedMetablock(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  uint32_t b = static_cast<uint32_t>(state.range(1));
  Disk disk(b);
  auto pts = ShortSpanSet(n, 7);
  auto tree = AugmentedMetablockTree::Build(&disk.pager,
                                            std::vector<Point>(pts));
  CCIDX_CHECK(tree.ok());
  auto wal = MaybeAttachWal(&disk);
  double lb = LogB(static_cast<double>(n), b);
  // Thm 3.7 insert + weak-delete probe and purge charge.
  RunUpdateLoop(state, disk.device, &*tree, std::move(pts), n,
                lb + lb * lb / b + 1.0);
}

void BM_UpdateDynamicMetablock(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  uint32_t b = static_cast<uint32_t>(state.range(1));
  Disk disk(b);
  auto pts = ShortSpanSet(n, 8);
  auto tree = DynamicMetablockTree::Build(&disk.pager,
                                          std::vector<Point>(pts));
  CCIDX_CHECK(tree.ok());
  auto wal = MaybeAttachWal(&disk);
  double levels = std::log2(static_cast<double>(n) / b) + 1;
  RunUpdateLoop(state, disk.device, &*tree, std::move(pts), n,
                levels * (LogB(static_cast<double>(n), b) + 1.0));
}

void BM_UpdateExternalPst(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  uint32_t b = static_cast<uint32_t>(state.range(1));
  Disk disk(b);
  auto pts = ShortSpanSet(n, 9);
  auto tree = ExternalPst::Build(&disk.pager, std::vector<Point>(pts));
  CCIDX_CHECK(tree.ok());
  auto wal = MaybeAttachWal(&disk);
  double l2 = std::log2(static_cast<double>(n));
  RunUpdateLoop(state, disk.device, &*tree, std::move(pts), n,
                l2 + l2 * l2 / b);
}

void BM_UpdateBPlusTree(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  uint32_t b = static_cast<uint32_t>(state.range(1));
  Disk disk(b);
  auto pts = ShortSpanSet(n, 11);
  std::vector<BtEntry> init;
  for (const Point& p : pts) init.push_back({p.x, p.id, p.y});
  std::sort(init.begin(), init.end());
  auto tree = BPlusTree::BulkLoad(&disk.pager, init);
  CCIDX_CHECK(tree.ok());
  auto wal = MaybeAttachWal(&disk);
  std::mt19937_64 rng(0xBE9D);
  std::deque<Point> fifo(pts.begin(), pts.end());
  uint64_t next_id = n, updates = 0;
  IoStats before = disk.device.stats();
  for (auto _ : state) {
    Point fresh = ShortSpan(rng, next_id++);
    CCIDX_CHECK(tree->Insert(fresh.x, fresh.id, fresh.y).ok());
    fifo.push_back(fresh);
    bool found = false;
    CCIDX_CHECK(tree->Delete(fifo.front().x, fifo.front().id, &found).ok());
    fifo.pop_front();
    updates += 2;
  }
  uint64_t ios = (disk.device.stats() - before).TotalIos();
  ReportUpdate(state, static_cast<double>(ios) / updates,
               LogB(static_cast<double>(n), b));
}

void BM_UpdateIntervalIndex(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  uint32_t b = static_cast<uint32_t>(state.range(1));
  Disk disk(b);
  auto pts = ShortSpanSet(n, 12);
  std::vector<Interval> init;
  for (const Point& p : pts) init.push_back({p.x, p.y, p.id});
  auto idx = IntervalIndex::Build(&disk.pager, std::move(init));
  CCIDX_CHECK(idx.ok());
  auto wal = MaybeAttachWal(&disk);
  std::mt19937_64 rng(0xBE9E);
  std::deque<Point> fifo(pts.begin(), pts.end());
  uint64_t next_id = n, updates = 0;
  IoStats before = disk.device.stats();
  for (auto _ : state) {
    Point fresh = ShortSpan(rng, next_id++);
    CCIDX_CHECK(idx->Insert({fresh.x, fresh.y, fresh.id}).ok());
    fifo.push_back(fresh);
    const Point& old = fifo.front();
    bool found = false;
    CCIDX_CHECK(idx->Delete({old.x, old.y, old.id}, &found).ok());
    fifo.pop_front();
    updates += 2;
  }
  uint64_t ios = (disk.device.stats() - before).TotalIos();
  double lb = LogB(static_cast<double>(n), b);
  ReportUpdate(state, static_cast<double>(ios) / updates,
               2 * lb + lb * lb / b + 1.0);
}

// Multi-writer scaling series (DESIGN.md §11): each measured step is one
// update batch entering the EpochGate as a single write epoch, fanned
// across W writer threads by UpdateExecutor's per-key partition, against
// the B+-tree's subtree-striped write paths. The readers=1 variants run
// a saturating reader-batch stream on the same gate, so the series also
// tracks writer throughput under read interference. Reported:
// updates_per_sec (the scaling trajectory — the CI update-scaling job
// asserts >= 1.5x going 1 -> 4 writers on the multicore runner) and the
// cumulative writer-side gate-wait p50/p99 from the gate histogram.
void BM_UpdateMultiWriterBPlusTree(benchmark::State& state) {
  const unsigned writers = static_cast<unsigned>(state.range(0));
  const bool with_readers = state.range(1) != 0;
  constexpr size_t kN = size_t{1} << 15;
  constexpr uint32_t kB = 64;
  constexpr size_t kBatch = 2048;
  Disk disk(kB);
  auto pts = ShortSpanSet(kN, 13);
  std::vector<BtEntry> init;
  for (const Point& p : pts) init.push_back({p.x, p.id, p.y});
  std::sort(init.begin(), init.end());
  auto tree = BPlusTree::BulkLoad(&disk.pager, init);
  CCIDX_CHECK(tree.ok());
  auto wal = MaybeAttachWal(&disk);

  EpochGate gate;
  UpdateExecutor exec(writers);
  std::atomic<bool> stop{false};
  std::thread reader;
  if (with_readers) {
    reader = std::thread([&] {
      std::mt19937_64 rrng(0xC0FE);
      while (!stop.load(std::memory_order_relaxed)) {
        gate.EnterRead();
        Coord lo = static_cast<Coord>(rrng() % (kDomain - 4096));
        uint64_t seen = 0;
        CCIDX_CHECK(tree->RangeScan(lo, lo + 4096,
                                    [&](const BtEntry&) { ++seen; })
                        .ok());
        benchmark::DoNotOptimize(seen);
        gate.ExitRead();
      }
    });
  }

  struct WOp {
    bool insert;
    Point p;
  };
  std::mt19937_64 rng(0xBE9F);
  std::deque<Point> live(pts.begin(), pts.end());
  uint64_t next_id = kN, updates = 0;
  WaitHistogram hist;
  for (auto _ : state) {
    // Batch generation is sequential bookkeeping, not the write path —
    // keep it out of the timed region so it doesn't dampen the scaling
    // signal. Deletes target the live-set front (inserted at bulk load
    // or >= one full batch earlier), so no batch deletes a key it also
    // inserts out of order across workers.
    state.PauseTiming();
    std::vector<WOp> ops;
    ops.reserve(kBatch);
    for (size_t i = 0; i < kBatch / 2; ++i) {
      Point fresh = ShortSpan(rng, next_id++);
      ops.push_back({true, fresh});
      ops.push_back({false, live.front()});
      live.pop_front();
      live.push_back(fresh);
    }
    state.ResumeTiming();
    UpdateReport report = exec.RunUpdates(
        std::span<const WOp>(ops), [](const WOp& op) { return op.p.id; },
        [&](const WOp& op, size_t, unsigned) -> Status {
          if (op.insert) return tree->Insert(op.p.x, op.p.id, op.p.y);
          bool found = false;
          return tree->Delete(op.p.x, op.p.id, &found);
        },
        &gate);
    CCIDX_CHECK(report.ok());
    hist = report.gate_wait_hist;
    updates += kBatch;
  }
  stop.store(true);
  if (reader.joinable()) reader.join();
  state.counters["updates_per_sec"] = benchmark::Counter(
      static_cast<double>(updates), benchmark::Counter::kIsRate);
  state.counters["gate_wait_p50_ns"] =
      static_cast<double>(hist.PercentileNs(50.0));
  state.counters["gate_wait_p99_ns"] =
      static_cast<double>(hist.PercentileNs(99.0));
  if (wal) {
    state.counters["wal_commits"] = static_cast<double>(wal->commits());
    state.counters["wal_group_follows"] =
        static_cast<double>(wal->group_follows());
  }
}

BENCHMARK(BM_UpdateAugmentedMetablock)
    ->Args({1 << 14, 64})
    ->Args({1 << 16, 64});
BENCHMARK(BM_UpdateDynamicMetablock)
    ->Args({1 << 14, 64})
    ->Args({1 << 16, 64});
BENCHMARK(BM_UpdateExternalPst)->Args({1 << 14, 64})->Args({1 << 16, 64});
BENCHMARK(BM_UpdateBPlusTree)->Args({1 << 14, 64})->Args({1 << 16, 64});
BENCHMARK(BM_UpdateIntervalIndex)
    ->Args({1 << 14, 64})
    ->Args({1 << 16, 64});
// Writer threads do the measured work while the caller blocks on the
// pool, so rates must come off wall-clock time.
BENCHMARK(BM_UpdateMultiWriterBPlusTree)
    ->ArgNames({"writers", "readers"})
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({4, 0})
    ->Args({8, 0})
    ->Args({1, 1})
    ->Args({4, 1})
    ->UseRealTime();

}  // namespace
}  // namespace bench
}  // namespace ccidx

CCIDX_BENCH_MAIN();
